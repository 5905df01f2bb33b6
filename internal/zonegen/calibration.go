package zonegen

import (
	"time"

	"idnlab/internal/langid"
	"idnlab/internal/webprobe"
)

// This file pins every calibration target taken from the paper. The
// generator consumes these numbers; the integration tests assert that the
// synthesized registry lands within tolerance of them at any scale.

// Snapshot is the reference date of the paper's zone snapshots
// (2017-09-21 through 2017-10-05; we use October 1st).
var Snapshot = time.Date(2017, 10, 1, 0, 0, 0, 0, time.UTC)

// TLDCalibration is one row of Table I.
type TLDCalibration struct {
	// TLD is the zone ("com", "net", "org") or "itld" for the 53 iTLDs
	// in aggregate.
	TLD string
	// SLDs is the total number of delegated second-level domains.
	SLDs int
	// IDNs is the number of IDN SLDs.
	IDNs int
	// WHOIS is the number of IDNs with parsed WHOIS records.
	WHOIS int
	// Blacklist counts per feed.
	VirusTotal, Qihoo360, Baidu int
	// BlacklistTotal is the unioned count (feeds overlap).
	BlacklistTotal int
	// NonIDNSample is the number of non-IDNs sampled for comparison.
	NonIDNSample int
}

// TableI is the dataset summary the paper reports.
var TableI = []TLDCalibration{
	{TLD: "com", SLDs: 129216926, IDNs: 1007148, WHOIS: 590542,
		VirusTotal: 3571, Qihoo360: 1807, Baidu: 26, BlacklistTotal: 5284, NonIDNSample: 1000000},
	{TLD: "net", SLDs: 14785199, IDNs: 231896, WHOIS: 131573,
		VirusTotal: 661, Qihoo360: 91, Baidu: 1, BlacklistTotal: 746, NonIDNSample: 100000},
	{TLD: "org", SLDs: 10390116, IDNs: 25629, WHOIS: 19271,
		VirusTotal: 56, Qihoo360: 2, Baidu: 1, BlacklistTotal: 59, NonIDNSample: 100000},
	{TLD: "itld", SLDs: 208163, IDNs: 208163, WHOIS: 2226,
		VirusTotal: 90, Qihoo360: 63, Baidu: 2, BlacklistTotal: 152, NonIDNSample: 0},
}

// NumITLDs is the number of internationalized TLD zones scanned.
const NumITLDs = 53

// languageWeight pairs a language with its share of the corpus.
type languageWeight struct {
	Lang   langid.Language
	Weight float64
}

// TableIILanguages is the overall language mix (Table II "IDN" column,
// percentages). The remainder (≈5.5%) is English/Other Latin.
var TableIILanguages = []languageWeight{
	{langid.Chinese, 52.03},
	{langid.Japanese, 12.97},
	{langid.Korean, 8.71},
	{langid.German, 4.90},
	{langid.Turkish, 2.93},
	{langid.Thai, 2.49},
	{langid.Swedish, 2.19},
	{langid.Spanish, 1.72},
	{langid.French, 1.68},
	{langid.Finnish, 1.20},
	{langid.Russian, 0.95},
	{langid.Hungarian, 0.81},
	{langid.Arabic, 0.84},
	{langid.Danish, 0.58},
	{langid.Persian, 0.54},
	{langid.English, 5.46},
}

// TableIIMaliciousLanguages is the blacklisted-IDN language mix (Table II
// "Blacklisted" column).
var TableIIMaliciousLanguages = []languageWeight{
	{langid.Chinese, 56.02},
	{langid.Korean, 14.46},
	{langid.Thai, 5.72},
	{langid.Japanese, 3.81},
	{langid.Turkish, 3.14},
	{langid.German, 1.91},
	{langid.Spanish, 1.55},
	{langid.Russian, 1.54},
	{langid.French, 0.90},
	{langid.Arabic, 0.69},
	{langid.Finnish, 0.58},
	{langid.Hungarian, 0.58},
	{langid.Persian, 0.45},
	{langid.Danish, 0.35},
	{langid.English, 7.78},
}

// registrarShare is a Table IV row.
type registrarShare struct {
	Name  string
	Share float64 // percent of all IDNs
}

// TableIVRegistrars are the top-10 IDN registrars; the long tail of the
// ~700 remaining registrars follows a Zipf distribution.
var TableIVRegistrars = []registrarShare{
	{"GMO Internet Inc.", 22.99},
	{"HiChina Zhicheng Technology Limited.", 10.86},
	{"Name.com, Inc.", 4.27},
	{"Gabia, Inc.", 4.02},
	{"Dynadot, LLC.", 3.19},
	{"1&1 Internet SE.", 2.89},
	{"Chengdu West Dimension Digital Technology Co., Ltd.", 2.76},
	{"eNom, LLC.", 2.37},
	{"DomainSite, Inc.", 2.32},
	{"GoDaddy.com, LLC.", 1.88},
}

// TotalRegistrars is the paper's "over 700 registrars" for IDNs.
const TotalRegistrars = 700

// opportunisticRegistrant is a Table III row: a bulk registrant and the
// theme of their portfolio.
type opportunisticRegistrant struct {
	Email string
	Count int // at paper scale
	Theme string
}

// TableIIIRegistrants are the top opportunistic registrants. Counts for
// ranks 1 and 5 are not fully legible in the source table; 1,795 and
// 1,178 preserve the stated ordering.
var TableIIIRegistrants = []opportunisticRegistrant{
	{"776053229@qq.com", 1795, "city"},
	{"daidesheng88@gmail.com", 1562, "gambling"},
	{"tetetw@gmail.com", 1453, "shortword"},
	{"840629127@qq.com", 1301, "city"},
	{"776053229@163.com", 1178, "city"},
	{"13779950000@139.com", 126, "gambling"},
	{"hoarder01@qq.com", 980, "shopping"},
	{"hoarder02@gmail.com", 870, "gambling"},
	{"hoarder03@163.com", 760, "city"},
	{"hoarder04@qq.com", 650, "shortword"},
}

// CreationYearWeights drives Figure 1: relative registration volume per
// year, with the spikes the paper attributes to the 2000 Verisign IDN
// testbed and the 2004 German/Latin character introduction, and overall
// growth toward the snapshot. Pre-2008 mass is 6.16% (Finding 2).
var CreationYearWeights = map[int]float64{
	2000: 1.6, 2001: 0.35, 2002: 0.3, 2003: 0.35, 2004: 1.3,
	2005: 0.5, 2006: 0.55, 2007: 0.6, 2008: 0.9, 2009: 1.1,
	2010: 1.6, 2011: 2.4, 2012: 3.6, 2013: 5.0, 2014: 7.2,
	2015: 12.0, 2016: 18.0, 2017: 24.0,
}

// MaliciousYearWeights has the malicious-registration spikes in 2015 and
// 2017 (cybersquatting campaigns).
var MaliciousYearWeights = map[int]float64{
	2008: 0.3, 2009: 0.4, 2010: 0.5, 2011: 0.7, 2012: 1.0,
	2013: 1.5, 2014: 2.2, 2015: 9.0, 2016: 4.0, 2017: 14.0,
}

// AttackYearWeights drives creation dates of homographic and Type-1
// registrations: these are long-lived (789 / 735 mean active days), so
// their registrations skew older than the general malicious population.
var AttackYearWeights = map[int]float64{
	2009: 0.6, 2010: 0.9, 2011: 1.1, 2012: 1.3, 2013: 1.5,
	2014: 1.6, 2015: 1.5, 2016: 1.2, 2017: 0.8,
}

// DNS activity model: log-normal parameters per population, calibrated to
// the quantiles stated in §IV-C, §VI-C and §VII-B (e.g. 60% of com IDNs
// active <100 days; homographic IDNs averaging 789 active days with 40%
// over 600; 80% of homographic IDNs over 100 queries, 10% over 1,000).
type activityParams struct {
	ActiveMu, ActiveSigma float64 // log-days
	QueryMu, QuerySigma   float64 // log-queries
}

var (
	// ActivityIDN: benign IDN traffic is thin and short-lived.
	ActivityIDN = activityParams{ActiveMu: 4.1, ActiveSigma: 1.6, QueryMu: 2.3, QuerySigma: 1.9}
	// ActivityNonIDN: the comparison population.
	ActivityNonIDN = activityParams{ActiveMu: 5.0, ActiveSigma: 1.5, QueryMu: 3.45, QuerySigma: 1.8}
	// ActivityMalicious: blacklisted IDNs live longer and draw more
	// traffic than benign IDNs (Findings 5, 6).
	ActivityMalicious = activityParams{ActiveMu: 5.3, ActiveSigma: 1.3, QueryMu: 5.7, QuerySigma: 2.0}
	// ActivityHomograph: 789-day average activity.
	ActivityHomograph = activityParams{ActiveMu: 6.6, ActiveSigma: 0.9, QueryMu: 5.7, QuerySigma: 0.94}
	// ActivitySemantic: Type-1 IDNs, 735-day / 1,562-query averages.
	ActivitySemantic = activityParams{ActiveMu: 6.5, ActiveSigma: 0.9, QueryMu: 6.63, QuerySigma: 1.2}
)

// HTTPS deployment model (§IV-E): fraction of each population serving a
// certificate, and the Table VI category mix among served certificates.
type certMix struct {
	DeployRate              float64 // certificates per domain
	Valid                   float64
	Expired                 float64
	InvalidAuthority        float64
	InvalidCommonNameShared float64
}

var (
	// CertMixIDN: 67,087 certs from 1,472,836 IDNs (4.55%); problem rows
	// from Table VI.
	CertMixIDN = certMix{DeployRate: 0.0455, Valid: 2.05, Expired: 12.54, InvalidAuthority: 18.14, InvalidCommonNameShared: 67.27}
	// CertMixNonIDN: 35,028 certs from 1.2M sampled non-IDNs (2.92%).
	CertMixNonIDN = certMix{DeployRate: 0.0292, Valid: 2.77, Expired: 24.92, InvalidAuthority: 16.56, InvalidCommonNameShared: 55.75}
)

// TableVIISharedCNs are the hosting/parking services whose certificates
// are shared across many domains, with Table VII deployment weights.
var TableVIISharedCNs = []struct {
	CN     string
	Weight float64
}{
	{"sedoparking.com", 27139},
	{"cafe24.com", 4024},
	{"ovh.net", 3691},
	{"bizgabia.com", 3271},
	{"03365.com", 449},
	{"ihs.com.tr", 314},
	{"seoboxes.com", 230},
	{"nayana.com", 137},
	{"suksawadplywood.co.th", 120},
	{"worksout.co.kr", 100},
}

// Attack-population calibration (§VI-C, §VII-B).
const (
	// HomographTotal is the number of registered homographic IDNs.
	HomographTotal = 1516
	// HomographIdentical is the subset rendering identically to their
	// brand.
	HomographIdentical = 91
	// HomographBlacklisted is the subset flagged by blacklists.
	HomographBlacklisted = 100
	// HomographProtective is the subset registered by brand owners.
	HomographProtective = 73
	// SemanticTotal is the number of registered Type-1 IDNs.
	SemanticTotal = 1497
	// Type2Total is the (extension) population of translated-brand IDNs;
	// the paper reports examples but no census, so a modest count is
	// synthesized for the Table X reproduction.
	Type2Total = 60
	// SemanticProtective is the brand-owned Type-1 subset.
	SemanticProtective = 45
)

// TableXIIIHomographTargets: top-10 brands by registered homographic IDNs
// (brand domain -> count at paper scale, protective registrations).
var TableXIIIHomographTargets = []struct {
	Domain     string
	Count      int
	Protective int
}{
	{"google.com", 121, 19},
	{"facebook.com", 98, 0},
	{"amazon.com", 55, 14},
	{"icloud.com", 42, 0},
	{"youtube.com", 41, 0},
	{"apple.com", 39, 0},
	{"sex.com", 36, 0},
	{"go.com", 29, 0},
	{"ea.com", 28, 0},
	{"twitter.com", 25, 5},
}

// HomographTargetBrands is the paper's count of distinct targeted brands.
const HomographTargetBrands = 255

// TableXIVSemanticTargets: top-10 brands by Type-1 IDNs.
var TableXIVSemanticTargets = []struct {
	Domain     string
	Count      int
	Protective int
}{
	{"58.com", 270, 1},
	{"qq.com", 139, 22},
	{"go.com", 114, 0},
	{"china.com", 84, 0},
	{"bet365.com", 81, 5},
	{"1688.com", 74, 0},
	{"amazon.com", 63, 2},
	{"sex.com", 39, 0},
	{"google.com", 34, 0},
	{"as.com", 33, 0},
}

// SemanticTargetBrands is the paper's count of distinct Type-1 targets.
const SemanticTargetBrands = 102

// SemanticKeywords are the CJK service keywords compounded with brand
// names in Type-1 attacks (Table IX and §VII-B: 登录 login, 登陆 login,
// 邮箱 email, 激活 activate, 售后 after-sale service, 汽车 automobile, …).
var SemanticKeywords = []string{
	"登录", "登陆", "邮箱", "激活", "售后", "汽车", "商城", "招聘",
	"彩票", "娱乐", "支付", "官网", "客服", "充值",
}

// Hosting-state weights for attack populations: §VI-C's 100-sample
// breakdown of homographic IDNs (34 unresolved, 10 error, 16 for sale,
// 14 parked, 11 test pages ≈ empty, rest meaningful/redirect) and
// §VII-B's Type-1 usage (55% unresolvable, 9% error, 21% parked, 2%
// empty, >85% inactive overall).
var (
	HomographHosting = webprobe.Weights{
		webprobe.NotResolved: 34, webprobe.ErrorPage: 10, webprobe.ForSale: 16,
		webprobe.Parked: 14, webprobe.Empty: 11, webprobe.Redirected: 5,
		webprobe.Meaningful: 10,
	}
	SemanticHosting = webprobe.Weights{
		webprobe.NotResolved: 55, webprobe.ErrorPage: 9, webprobe.Parked: 21,
		webprobe.Empty: 2, webprobe.ForSale: 4, webprobe.Redirected: 3,
		webprobe.Meaningful: 6,
	}
)

// IP concentration model (Figure 4): /24 segments at paper scale and the
// Zipf exponent reproducing "80% of IDNs hosted in 1,000 /24 segments"
// and "top 10 segments host 24.8%".
const (
	Slash24Segments   = 43535
	SegmentZipfS      = 0.85
	UnregisteredNoise = 0.03 // fraction of unregistered homograph candidates seeing stray queries (Fig 6)
)
