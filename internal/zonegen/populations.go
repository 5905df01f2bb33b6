package zonegen

import (
	"sort"

	"idnlab/internal/blacklist"
	"idnlab/internal/brands"
	"idnlab/internal/confusables"
	"idnlab/internal/glyph"
	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/simrand"
	"idnlab/internal/webprobe"
)

// maliciousHosting reflects Finding 6: blacklisted IDNs actually serve
// content and trap visitors far more often than benign IDNs.
var maliciousHosting = webprobe.Weights{
	webprobe.NotResolved: 15, webprobe.ErrorPage: 10, webprobe.Empty: 5,
	webprobe.Parked: 10, webprobe.ForSale: 5, webprobe.Redirected: 15,
	webprobe.Meaningful: 40,
}

// attackTLD assigns an attack domain's TLD.
func (g *generator) attackTLD() string { return gtldNames[g.attackTLDs.Next()] }

// assigned tracks per-TLD materialized IDN counts so the regular
// population tops each zone up to its Table I total.
func (g *generator) assignedPerTLD() map[string]int {
	out := make(map[string]int)
	for i := range g.reg.Domains {
		d := &g.reg.Domains[i]
		if !d.IsIDN {
			continue
		}
		key := d.TLD
		if idna.IsACELabel(key) {
			key = "itld"
		}
		out[key]++
	}
	return out
}

// genAttackDomains materializes the homographic and Type-1 semantic
// registrations with the per-brand allocation of Tables XIII and XIV.
func (g *generator) genAttackDomains() {
	g.genHomographs()
	g.genSemantic()
	g.genType2()
}

// genType2 materializes translated-brand (Type-2) registrations from the
// brand translation dictionary — the paper's Table X attack class.
func (g *generator) genType2() {
	total := g.cfg.scaleAtLeast1(Type2Total)
	// Deterministic brand order for reproducibility.
	var brandNames []string
	for b := range brands.Translations {
		brandNames = append(brandNames, b)
	}
	sort.Strings(brandNames)
	for i := 0; i < total; i++ {
		brand := brandNames[i%len(brandNames)]
		names := brands.Translations[brand]
		uniLabel := names[g.src.Intn(len(names))]
		if !g.names.take(uniLabel) {
			continue // each translation registers at most once
		}
		ace, err := idna.ToASCIILabel(uniLabel)
		if err != nil {
			continue
		}
		tld := g.attackTLD()
		d := Domain{
			ACE:         ace + "." + tld,
			Unicode:     uniLabel + "." + tld,
			TLD:         tld,
			IsIDN:       true,
			Lang:        langid.Chinese,
			Registrar:   g.registrarNames[g.registrar.Next()],
			Created:     g.dateInYear(g.yearAtk.next()),
			Attack:      AttackSemantic2,
			TargetBrand: brand,
		}
		if g.src.Bool(0.2) {
			d.RegistrantEmail = g.personalEmail()
		} else {
			d.Privacy = true
		}
		g.finishDomain(d, &g.semantic, whoisRateFor(tld, true))
	}
}

// brandAllocation distributes total attack registrations over brands:
// the published top-10 counts plus an even tail over the remaining
// targeted brands.
type brandTarget struct {
	brand      brands.Brand
	count      int
	protective int
}

func (g *generator) allocateBrands(total, protectiveTotal int, top []struct {
	Domain     string
	Count      int
	Protective int
}, distinctBrands int) []brandTarget {
	cfg := g.cfg
	topPaperTotal := 0
	for _, t := range top {
		topPaperTotal += t.Count
	}
	var targets []brandTarget
	weights := make([]float64, 0, distinctBrands)
	protWeights := make([]float64, 0, len(top))
	inTop := make(map[string]bool, len(top))
	for _, t := range top {
		b, ok := brands.Lookup(t.Domain)
		if !ok {
			continue
		}
		inTop[t.Domain] = true
		targets = append(targets, brandTarget{brand: b})
		weights = append(weights, float64(t.Count))
		protWeights = append(protWeights, float64(t.Protective))
	}
	// Protective registrations draw from a global scaled budget so they
	// survive down-scaling (paper: 73 homograph / 45 Type-1 defensive
	// registrations overall).
	protCounts := allocate(cfg.scaleAtLeast1(protectiveTotal), protWeights)
	for i := range protCounts {
		targets[i].protective = protCounts[i]
	}
	// Tail: the next-ranked brands share the residual mass evenly.
	tailBrands := distinctBrands - len(top)
	tailWeight := 0.0
	if tailBrands > 0 {
		// Residual mass relative to the top-10's published share.
		residual := 1.0/0.339 - 1.0 // top-10 ≈ 33.9% for homographs; close enough for both tables
		tailWeight = float64(topPaperTotal) * residual / float64(tailBrands)
	}
	for _, b := range brands.List() {
		if len(targets) >= distinctBrands {
			break
		}
		if inTop[b.Domain] {
			continue
		}
		targets = append(targets, brandTarget{brand: b})
		weights = append(weights, tailWeight)
	}
	counts := allocate(total, weights)
	for i := range targets {
		targets[i].count = counts[i]
	}
	return targets
}

// identicalVariants returns the single-substitution variants of label that
// render pixel-identically (pure homoglyph swaps like Cyrillic а).
func identicalVariants(tab *confusables.Table, label string) []string {
	var out []string
	runes := []rune(label)
	for i, r := range runes {
		for _, h := range tab.Homoglyphs(r) {
			if marks, ok := glyph.MarksOf(h); ok && len(marks) == 0 {
				cand := make([]rune, len(runes))
				copy(cand, runes)
				cand[i] = h
				out = append(out, string(cand))
			}
		}
	}
	return out
}

func (g *generator) genHomographs() {
	cfg := g.cfg
	total := cfg.scaleAtLeast1(HomographTotal)
	identicalBudget := cfg.scaleAtLeast1(HomographIdentical)
	blacklistBudget := cfg.scaleAtLeast1(HomographBlacklisted)
	tab := confusables.Default()
	targets := g.allocateBrands(total, HomographProtective, TableXIIIHomographTargets, HomographTargetBrands)

	made := 0
	for _, t := range targets {
		label := t.brand.Label()
		idVars := identicalVariants(tab, label)
		allVars := tab.Variants(label)
		if len(allVars) == 0 {
			continue
		}
		for i := 0; i < t.count; i++ {
			var uniLabel string
			if identicalBudget > 0 && len(idVars) > 0 {
				uniLabel = g.names.unique(idVars[g.src.Intn(len(idVars))])
				identicalBudget--
			} else {
				uniLabel = g.names.unique(allVars[g.src.Intn(len(allVars))])
			}
			ace, err := idna.ToASCIILabel(uniLabel)
			if err != nil {
				continue
			}
			tld := g.attackTLD()
			d := Domain{
				ACE:         ace + "." + tld,
				Unicode:     uniLabel + "." + tld,
				TLD:         tld,
				IsIDN:       true,
				Lang:        langid.English, // Latin-lookalike labels
				Registrar:   g.registrarNames[g.registrar.Next()],
				Created:     g.dateInYear(g.yearAtk.next()),
				Attack:      AttackHomograph,
				TargetBrand: t.brand.Domain,
			}
			if i < t.protective {
				d.Protective = true
				d.RegistrantEmail = "dns-admin@" + t.brand.Domain
				d.HasWHOIS = true
			} else if g.src.Bool(0.15) {
				d.RegistrantEmail = g.personalEmail()
			} else {
				d.Privacy = true
			}
			if blacklistBudget > 0 && !d.Protective && g.src.Bool(float64(HomographBlacklisted)/float64(HomographTotal)*2) {
				d.Feeds = []string{blacklist.FeedVirusTotal}
				blacklistBudget--
			}
			whoisRate := whoisRateFor(tld, true)
			if d.Protective {
				whoisRate = 1
			}
			g.finishDomain(d, &g.homograph, whoisRate)
			made++
		}
	}
	_ = made
}

func (g *generator) genSemantic() {
	cfg := g.cfg
	total := cfg.scaleAtLeast1(SemanticTotal)
	targets := g.allocateBrands(total, SemanticProtective, TableXIVSemanticTargets, SemanticTargetBrands)
	for _, t := range targets {
		label := t.brand.Label()
		for i := 0; i < t.count; i++ {
			kw := SemanticKeywords[g.src.Intn(len(SemanticKeywords))]
			uniLabel := g.names.unique(label + kw)
			ace, err := idna.ToASCIILabel(uniLabel)
			if err != nil {
				continue
			}
			tld := g.attackTLD()
			d := Domain{
				ACE:         ace + "." + tld,
				Unicode:     uniLabel + "." + tld,
				TLD:         tld,
				IsIDN:       true,
				Lang:        langid.Chinese,
				Registrar:   g.registrarNames[g.registrar.Next()],
				Created:     g.dateInYear(g.yearAtk.next()),
				Attack:      AttackSemantic,
				TargetBrand: t.brand.Domain,
			}
			if i < t.protective {
				d.Protective = true
				d.RegistrantEmail = "dns-admin@" + t.brand.Domain
				d.HasWHOIS = true
			} else if g.src.Bool(float64(226) / float64(SemanticTotal)) {
				d.RegistrantEmail = g.personalEmail()
			} else {
				d.Privacy = true
			}
			// A couple of Type-1 IDNs deliver malware (§VII-B).
			if g.src.Bool(float64(2) / float64(SemanticTotal) * 3) {
				d.Feeds = []string{blacklist.Feed360}
			}
			whoisRate := whoisRateFor(tld, true)
			if d.Protective {
				whoisRate = 1
			}
			g.finishDomain(d, &g.semantic, whoisRate)
		}
	}
}

// genOpportunistic materializes the Table III bulk-registrant portfolios.
func (g *generator) genOpportunistic() {
	for _, opp := range TableIIIRegistrants {
		count := g.cfg.scaleAtLeast1(opp.Count)
		for i := 0; i < count; i++ {
			uniLabel := g.names.ThemedLabel(opp.Theme)
			ace, err := idna.ToASCIILabel(uniLabel)
			if err != nil {
				continue
			}
			d := Domain{
				ACE:             ace + ".com",
				Unicode:         uniLabel + ".com",
				TLD:             "com",
				IsIDN:           true,
				Lang:            langid.Chinese,
				Registrar:       g.registrarNames[g.registrar.Next()],
				RegistrantEmail: opp.Email,
				Created:         g.dateInYear(g.yearMal.next()),
			}
			// Gambling portfolios are where the blacklisted spikes come
			// from (Figure 1's 2015/2017 malicious spikes).
			if opp.Theme == "gambling" && g.src.Bool(0.25) {
				d.Feeds = []string{blacklist.Feed360}
			}
			p := &g.idn
			if d.Malicious() {
				p = &g.malicious
			}
			g.finishDomain(d, p, whoisRateFor("com", true))
		}
	}
}

// genRegularIDNs tops each TLD up to its Table I IDN total with benign and
// blacklisted registrations in the Table II language mix.
func (g *generator) genRegularIDNs() {
	cfg := g.cfg
	assigned := g.assignedPerTLD()
	langW := make([]float64, len(TableIILanguages))
	for i, lw := range TableIILanguages {
		langW[i] = lw.Weight
	}
	malLangW := make([]float64, len(TableIIMaliciousLanguages))
	for i, lw := range TableIIMaliciousLanguages {
		malLangW[i] = lw.Weight
	}
	langSampler := simrand.NewWeighted(g.src.Fork("lang"), langW)
	malLangSampler := simrand.NewWeighted(g.src.Fork("mallang"), malLangW)

	for _, row := range TableI {
		want := cfg.scaleCount(row.IDNs)
		remaining := want - assigned[row.TLD]
		if remaining <= 0 {
			continue
		}
		// Blacklist budget for this TLD, minus what attack/opportunistic
		// populations already consumed (approximately; the union count is
		// what Table I checks).
		malWant := cfg.scaleCount(row.BlacklistTotal)
		feedW := simrand.NewWeighted(g.src, []float64{
			float64(row.VirusTotal), float64(row.Qihoo360), float64(row.Baidu)})
		feedNames := []string{blacklist.FeedVirusTotal, blacklist.Feed360, blacklist.FeedBaidu}

		whoisRate := whoisRateFor(row.TLD, true)
		for i := 0; i < remaining; i++ {
			malicious := i < malWant
			var lang langid.Language
			if malicious {
				lang = TableIIMaliciousLanguages[malLangSampler.Next()].Lang
			} else {
				lang = TableIILanguages[langSampler.Next()].Lang
			}
			uniLabel := g.names.Label(lang)
			ace, err := idna.ToASCIILabel(uniLabel)
			if err != nil {
				continue
			}
			tld := row.TLD
			uniTLD := tld
			if row.TLD == "itld" {
				i := g.src.Intn(len(g.reg.ITLDs))
				tld, uniTLD = g.reg.ITLDs[i], g.itldUnicode[i]
			}
			d := Domain{
				ACE:     ace + "." + tld,
				Unicode: uniLabel + "." + uniTLD,
				TLD:     tld,
				IsIDN:   true,
				Lang:    lang,
			}
			d.Registrar = g.registrarNames[g.registrar.Next()]
			p := &g.idn
			if malicious {
				d.Feeds = []string{feedNames[feedW.Next()]}
				// Feeds overlap: a second feed sometimes agrees.
				if g.src.Bool(0.08) {
					other := feedNames[feedW.Next()]
					if other != d.Feeds[0] {
						d.Feeds = append(d.Feeds, other)
					}
				}
				d.Created = g.dateInYear(g.yearMal.next())
				d.RegistrantEmail = g.personalEmail()
				p = &g.malicious
			} else {
				d.Created = g.dateInYear(g.yearAll.next())
				if g.src.Bool(0.35) {
					d.Privacy = true
				} else {
					d.RegistrantEmail = g.personalEmail()
				}
			}
			g.finishDomain(d, p, whoisRate)
		}
	}
}

// genNonIDNs materializes the sampled non-IDN comparison population.
func (g *generator) genNonIDNs() {
	cfg := g.cfg
	for _, row := range TableI {
		count := cfg.scaleCount(row.NonIDNSample)
		for i := 0; i < count; i++ {
			label := g.names.ASCIILabel()
			d := Domain{
				ACE:     label + "." + row.TLD,
				Unicode: label + "." + row.TLD,
				TLD:     row.TLD,
				IsIDN:   false,
				Lang:    langid.English,
			}
			d.Registrar = g.registrarNames[g.registrar.Next()]
			if g.src.Bool(0.3) {
				d.Privacy = true
			} else {
				d.RegistrantEmail = g.personalEmail()
			}
			d.Created = g.dateInYear(g.yearAll.next())
			g.finishDomain(d, &g.nonIDN, whoisRateFor(row.TLD, false))
		}
	}
}
