package browser

// Platform is an operating-system family in the survey.
type Platform string

// Platforms covered by Table XI.
const (
	PlatformPC      Platform = "PC"
	PlatformIOS     Platform = "iOS"
	PlatformAndroid Platform = "Android"
)

// ITLDSupport describes how a browser handles internationalized TLDs.
type ITLDSupport int

// iTLD support levels observed in Table XI.
const (
	// ITLDFull accepts both Unicode and Punycode TLDs.
	ITLDFull ITLDSupport = iota + 1
	// ITLDNeedPrefix accepts an iTLD only with a protocol prefix
	// ("http://") — the Firefox behaviour.
	ITLDNeedPrefix
	// ITLDUnicodeOnly accepts only the Unicode TLD form.
	ITLDUnicodeOnly
	// ITLDPunycodeOnly accepts only the ACE TLD form.
	ITLDPunycodeOnly
	// ITLDNone rejects iTLDs entirely (Baidu on Android).
	ITLDNone
)

var itldNames = map[ITLDSupport]string{
	ITLDFull:         "",
	ITLDNeedPrefix:   "Need prefix",
	ITLDUnicodeOnly:  "Unicode only",
	ITLDPunycodeOnly: "Punycode only",
	ITLDNone:         "Not supported",
}

// String returns the Table XI cell text ("" for full support).
func (s ITLDSupport) String() string { return itldNames[s] }

// Profile describes one surveyed browser build.
type Profile struct {
	// Name and Version identify the browser ("Chrome", "62.0").
	Name    string
	Version string
	// Platform is where the build runs.
	Platform Platform
	// Policy is the IDN display policy in the address bar.
	Policy Policy
	// TitleInAddressBar reports the mobile behaviour of showing the web
	// page title instead of the URL — which lets an attacker display a
	// brand domain as the "address".
	TitleInAddressBar bool
	// AboutBlankOnSuspicious reports the QQ-Android behaviour of
	// navigating suspicious IDNs to about:blank.
	AboutBlankOnSuspicious bool
	// ITLD is the browser's iTLD support level.
	ITLD ITLDSupport
}

// Outcome is a Table XI homograph-attack cell.
type Outcome int

// Outcomes, in increasing order of user risk.
const (
	// OutcomeSafe: homographic IDNs display in Punycode (blank cell).
	OutcomeSafe Outcome = iota + 1
	// OutcomeAlert: Unicode plus a warning (IE 11).
	OutcomeAlert
	// OutcomeAboutBlank: certain homographic IDNs lead to a blank page.
	OutcomeAboutBlank
	// OutcomeTitle: page titles shown in the address bar.
	OutcomeTitle
	// OutcomeBypassed: certain homographs (whole-script confusables)
	// display in Unicode.
	OutcomeBypassed
	// OutcomeVulnerable: homographic IDNs display in Unicode.
	OutcomeVulnerable
)

var outcomeNames = map[Outcome]string{
	OutcomeSafe:       "",
	OutcomeAlert:      "Alert",
	OutcomeAboutBlank: "about:blank",
	OutcomeTitle:      "Title",
	OutcomeBypassed:   "Bypassed",
	OutcomeVulnerable: "Vulnerable",
}

// String returns the Table XI cell text ("" for safe).
func (o Outcome) String() string { return outcomeNames[o] }

// Attack corpus: the two homograph shapes the survey probes with.
const (
	// mixedScriptAttack replaces one Latin letter with a Cyrillic
	// homoglyph — the 2017 apple.com attack shape.
	mixedScriptAttack = "аpple.com"
	// wholeScriptAttack is entirely Cyrillic and mimics soso.com — the
	// shape that bypasses the single-script policy.
	wholeScriptAttack = "ѕоѕо.com"
)

// Evaluate derives the Table XI homograph cell for a profile by actually
// running its display policy against the two attack shapes.
func Evaluate(p Profile) Outcome {
	if p.AboutBlankOnSuspicious {
		return OutcomeAboutBlank
	}
	if p.TitleInAddressBar {
		return OutcomeTitle
	}
	_, mixed := DisplayDomain(p.Policy, mixedScriptAttack)
	_, whole := DisplayDomain(p.Policy, wholeScriptAttack)
	switch {
	case mixed == RenderUnicodeWithAlert || whole == RenderUnicodeWithAlert:
		return OutcomeAlert
	case mixed == RenderUnicode:
		return OutcomeVulnerable
	case whole == RenderUnicode:
		return OutcomeBypassed
	default:
		return OutcomeSafe
	}
}

// Survey returns the ten-browser, three-platform matrix of Table XI.
// Policies are assigned so that Evaluate reproduces each published cell.
func Survey() []Profile {
	return []Profile{
		// PC.
		{Name: "Chrome", Version: "62.0", Platform: PlatformPC, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Firefox", Version: "57.0", Platform: PlatformPC, Policy: PolicySingleScript, ITLD: ITLDNeedPrefix},
		{Name: "Opera", Version: "49.0", Platform: PlatformPC, Policy: PolicySingleScript, ITLD: ITLDFull},
		{Name: "Safari", Version: "11.0", Platform: PlatformPC, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "IE", Version: "11.0", Platform: PlatformPC, Policy: PolicyAlert, ITLD: ITLDFull},
		{Name: "QQ", Version: "9.7", Platform: PlatformPC, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Baidu", Version: "8.7", Platform: PlatformPC, Policy: PolicySingleScript, ITLD: ITLDFull},
		{Name: "Qihoo 360", Version: "9.1", Platform: PlatformPC, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Sogou", Version: "7.1", Platform: PlatformPC, Policy: PolicyAlwaysUnicode, ITLD: ITLDFull},
		{Name: "Liebao", Version: "6.5", Platform: PlatformPC, Policy: PolicySingleScript, ITLD: ITLDFull},
		// iOS.
		{Name: "Chrome", Version: "61.0", Platform: PlatformIOS, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Firefox", Version: "10.1", Platform: PlatformIOS, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Opera", Version: "16.0", Platform: PlatformIOS, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Safari", Version: "11.0", Platform: PlatformIOS, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "QQ", Version: "7.9", Platform: PlatformIOS, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDUnicodeOnly},
		{Name: "Baidu", Version: "4.10", Platform: PlatformIOS, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDUnicodeOnly},
		{Name: "Qihoo 360", Version: "4.0", Platform: PlatformIOS, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDFull},
		{Name: "Sogou", Version: "5.10", Platform: PlatformIOS, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDFull},
		{Name: "Liebao", Version: "4.18", Platform: PlatformIOS, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDUnicodeOnly},
		// Android.
		{Name: "Chrome", Version: "61.0", Platform: PlatformAndroid, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "Firefox", Version: "57.0", Platform: PlatformAndroid, Policy: PolicySingleScript, ITLD: ITLDNeedPrefix},
		{Name: "Opera", Version: "43.0", Platform: PlatformAndroid, Policy: PolicyRestricted, ITLD: ITLDFull},
		{Name: "QQ", Version: "8.0", Platform: PlatformAndroid, Policy: PolicyRestricted, AboutBlankOnSuspicious: true, ITLD: ITLDUnicodeOnly},
		{Name: "Baidu", Version: "6.4", Platform: PlatformAndroid, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDNone},
		{Name: "Qihoo 360", Version: "8.2", Platform: PlatformAndroid, Policy: PolicyRestricted, ITLD: ITLDPunycodeOnly},
		{Name: "Sogou", Version: "5.9", Platform: PlatformAndroid, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDUnicodeOnly},
		{Name: "Liebao", Version: "5.22", Platform: PlatformAndroid, Policy: PolicyRestricted, TitleInAddressBar: true, ITLD: ITLDFull},
	}
}

// SurveyRow is one rendered row of the Table XI reproduction.
type SurveyRow struct {
	Browser  string
	Platform Platform
	Version  string
	ITLDCell string
	Attack   string
}

// RunSurvey evaluates every profile and returns the rendered matrix rows.
func RunSurvey() []SurveyRow {
	profiles := Survey()
	rows := make([]SurveyRow, 0, len(profiles))
	for _, p := range profiles {
		rows = append(rows, SurveyRow{
			Browser:  p.Name,
			Platform: p.Platform,
			Version:  p.Version,
			ITLDCell: p.ITLD.String(),
			Attack:   Evaluate(p).String(),
		})
	}
	return rows
}
