// Package zonegen synthesizes the study's entire data universe: a
// registry of IDN and non-IDN domains whose joint distribution is
// calibrated to every number the paper reports (calibration.go), plus
// builders that materialize each auxiliary source — zone files, WHOIS,
// passive DNS, blacklists, certificates, web content — from that ground
// truth.
//
// The paper's inputs (Verisign/PIR zone snapshots, commercial passive DNS,
// WHOIS crawls, URL blacklists) are proprietary; this generator is the
// documented substitution. The measurement pipeline (package core) never
// reads the ground-truth fields directly: it consumes only the
// materialized sources, exactly as the authors consumed their feeds.
package zonegen

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"idnlab/internal/idna"
	"idnlab/internal/langid"
	"idnlab/internal/simrand"
	"idnlab/internal/webprobe"
)

// AttackKind labels the abuse category a domain was generated under.
type AttackKind int

// Attack kinds.
const (
	AttackNone AttackKind = iota
	AttackHomograph
	AttackSemantic
	AttackSemantic2
)

// CertKind is the HTTPS deployment category of a domain.
type CertKind int

// Certificate deployment kinds (Table VI).
const (
	CertNone CertKind = iota
	CertValid
	CertExpired
	CertSelfSigned
	CertShared
)

// Domain is the ground truth for one registered domain.
type Domain struct {
	// ACE is the registered name in ASCII-compatible encoding.
	ACE string
	// Unicode is the display form.
	Unicode string
	// TLD is the zone ("com", "net", "org", or an iTLD origin).
	TLD string
	// IsIDN reports whether the domain is internationalized.
	IsIDN bool
	// Lang is the intended language of the label.
	Lang langid.Language
	// Registrar and registrant identity.
	Registrar       string
	RegistrantEmail string
	Privacy         bool
	// HasWHOIS reports whether the WHOIS crawl covers this domain.
	HasWHOIS bool
	// Created is the registration date.
	Created time.Time
	// Feeds lists the blacklist feeds flagging the domain (empty when
	// benign).
	Feeds []string
	// Hosting is the web-content profile.
	Hosting webprobe.State
	// Cert describes HTTPS deployment; SharedCN is set for CertShared.
	Cert     CertKind
	SharedCN string
	// Attack marks generated abuse domains and their target.
	Attack      AttackKind
	TargetBrand string
	// Protective reports a brand-owner defensive registration.
	Protective bool
	// Passive-DNS ground truth.
	FirstSeen time.Time
	LastSeen  time.Time
	Queries   int64
	IPs       []string
}

// Malicious reports whether any blacklist feed flags the domain.
func (d *Domain) Malicious() bool { return len(d.Feeds) > 0 }

// Config parameterizes generation.
type Config struct {
	// Seed makes the whole universe reproducible.
	Seed uint64
	// Scale divides every paper-scale count; 1 reproduces paper scale,
	// the default 100 synthesizes ≈14.7K IDNs. Every date is anchored
	// at Snapshot, the paper's.
	Scale int
}

// DefaultScale is the default down-scaling divisor.
const DefaultScale = 100

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	return c
}

// Registry is the generated universe.
type Registry struct {
	// Cfg echoes the generation parameters (defaults resolved).
	Cfg Config
	// Domains holds every materialized domain: all IDNs plus the sampled
	// non-IDN comparison population.
	Domains []Domain
	// SLDTotals carries the analytic per-TLD SLD population (Table I
	// "# SLD" divided by Scale). Zone files materialize only IDNs and
	// sampled non-IDNs, exactly as the paper materialized its samples.
	SLDTotals map[string]int
	// ITLDs lists the 53 internationalized TLD origins in ACE form.
	ITLDs []string

	// byACE indexes Domains by ACE name, built lazily on the first
	// Lookup. Before the index each Lookup was a linear scan over the
	// whole registry — the crawler's per-probe cost was O(corpus).
	byACEOnce sync.Once
	byACE     map[string]int
}

// scaleCount divides a paper-scale count by the configured scale with
// round-half-up.
func (c Config) scaleCount(n int) int {
	return (n + c.Scale/2) / c.Scale
}

// scaleAtLeast1 is scaleCount clamped to a minimum of one, for populations
// that must exist at any scale.
func (c Config) scaleAtLeast1(n int) int {
	v := c.scaleCount(n)
	if v < 1 {
		return 1
	}
	return v
}

// allocate distributes total across weights by largest remainder, so that
// proportions hold exactly even for small totals.
func allocate(total int, weights []float64) []int {
	if total <= 0 || len(weights) == 0 {
		return make([]int, len(weights))
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		return make([]int, len(weights))
	}
	out := make([]int, len(weights))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		out[i] = int(exact)
		used += out[i]
		rems[i] = rem{idx: i, frac: exact - float64(out[i])}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; used < total; i++ {
		out[rems[i%len(rems)].idx]++
		used++
	}
	return out
}

// generator carries generation state.
//
// The RNG draw order is the generator's contract: every sampler below
// that draws from src is built once (NewWeighted draws nothing) and its
// Next consumes the one Float64 a sampler built at the call site would.
type generator struct {
	cfg       Config
	src       *simrand.Source
	names     *nameGen
	reg       *Registry
	registrar *simrand.Weighted
	// registrarNames indexes the weighted sampler's categories.
	registrarNames []string
	segZipf        *simrand.Zipf
	// Creation-year samplers: the whole corpus, blacklisted and attack
	// registrations.
	yearAll, yearMal, yearAtk yearSampler
	attackTLDs                *simrand.Weighted
	sharedCN                  *simrand.Weighted
	// The five populations finishDomain fills correlated fields for.
	idn, malicious, homograph, semantic, nonIDN profile
	// itldUnicode is the display form of each reg.ITLDs entry.
	itldUnicode   []string
	emailSeq      int
	pdnsStart     time.Time
	farsightStart time.Time
}

// yearSampler draws a creation year from one of the calibration tables.
type yearSampler struct {
	years []int
	w     *simrand.Weighted
}

// profile is what a population draws its hosting state, certificate
// deployment and passive-DNS activity from.
type profile struct {
	hosting    *simrand.Weighted // over hostingStates
	act        activityParams
	deployRate float64
	certKind   *simrand.Weighted // over certKinds
}

var (
	hostingStates = webprobe.States()
	certKinds     = []CertKind{CertValid, CertExpired, CertSelfSigned, CertShared}
	// gtldWeights is the com/net/org split of attack registrations and of
	// delta adds: predominantly com, like the paper's corpus.
	gtldNames      = []string{"com", "net", "org"}
	gtldWeights    = []float64{0.82, 0.13, 0.05}
	emailProviders = []string{"qq.com", "163.com", "gmail.com", "126.com", "hotmail.com"}
)

func (g *generator) newProfile(hosting webprobe.Weights, act activityParams, mix certMix) profile {
	w := make([]float64, len(hostingStates))
	for i, s := range hostingStates {
		w[i] = hosting[s]
	}
	return profile{
		hosting:    simrand.NewWeighted(g.src, w),
		act:        act,
		deployRate: mix.DeployRate,
		certKind: simrand.NewWeighted(g.src,
			[]float64{mix.Valid, mix.Expired, mix.InvalidAuthority, mix.InvalidCommonNameShared}),
	}
}

// Generate synthesizes the registry for the given configuration.
func Generate(cfg Config) *Registry {
	g := newGenerator(cfg)
	g.run()
	return g.reg
}

func newGenerator(cfg Config) *generator {
	cfg = cfg.withDefaults()
	g := &generator{
		cfg: cfg,
		src: simrand.New(cfg.Seed),
		reg: &Registry{Cfg: cfg, SLDTotals: make(map[string]int)},
		// 360 DNS Pai coverage starts 2014-08-04; Farsight, used for the
		// abusive subsets, reaches back to 2010-06-24 (§III).
		pdnsStart:     time.Date(2014, 8, 4, 0, 0, 0, 0, time.UTC),
		farsightStart: time.Date(2010, 6, 24, 0, 0, 0, 0, time.UTC),
	}
	// The populations run materializes add up to at most this (the regular
	// IDNs top each zone up to its Table I total, so the attack and
	// opportunistic counts are counted twice at worst): the registry and
	// the name census are each allocated once.
	n := cfg.scaleAtLeast1(HomographTotal) + cfg.scaleAtLeast1(SemanticTotal) + cfg.scaleAtLeast1(Type2Total)
	for _, opp := range TableIIIRegistrants {
		n += cfg.scaleAtLeast1(opp.Count)
	}
	for _, row := range TableI {
		g.reg.SLDTotals[row.TLD] = cfg.scaleCount(row.SLDs)
		n += cfg.scaleCount(row.IDNs) + cfg.scaleCount(row.NonIDNSample)
	}
	g.reg.Domains = make([]Domain, 0, n)
	g.names = newNameGen(g.src.Fork("names"), n)
	g.buildRegistrarSampler()
	g.yearAll = g.newYearSampler(CreationYearWeights)
	g.yearMal = g.newYearSampler(MaliciousYearWeights)
	g.yearAtk = g.newYearSampler(AttackYearWeights)
	g.attackTLDs = simrand.NewWeighted(g.src, gtldWeights)
	cnW := make([]float64, len(TableVIISharedCNs))
	for i, cn := range TableVIISharedCNs {
		cnW[i] = cn.Weight
	}
	g.sharedCN = simrand.NewWeighted(g.src, cnW)
	g.idn = g.newProfile(webprobe.IDNWeights(), ActivityIDN, CertMixIDN)
	g.malicious = g.newProfile(maliciousHosting, ActivityMalicious, CertMixIDN)
	g.homograph = g.newProfile(HomographHosting, ActivityHomograph, CertMixIDN)
	g.semantic = g.newProfile(SemanticHosting, ActivitySemantic, CertMixIDN)
	g.nonIDN = g.newProfile(webprobe.NonIDNWeights(), ActivityNonIDN, CertMixNonIDN)
	segments := cfg.scaleAtLeast1(Slash24Segments)
	g.segZipf = simrand.NewZipf(g.src.Fork("segments"), segments, SegmentZipfS)
	return g
}

// run materializes every population, in the fixed order the draw
// sequence depends on.
func (g *generator) run() {
	g.buildITLDs()
	g.genAttackDomains()
	g.genOpportunistic()
	g.genRegularIDNs()
	g.genNonIDNs()
}

// buildRegistrarSampler sets up the Table IV head plus a Zipf long tail of
// synthetic registrars.
func (g *generator) buildRegistrarSampler() {
	var weights []float64
	headShare := 0.0
	for _, r := range TableIVRegistrars {
		g.registrarNames = append(g.registrarNames, r.Name)
		weights = append(weights, r.Share)
		headShare += r.Share
	}
	tail := TotalRegistrars - len(TableIVRegistrars)
	tailShare := 100 - headShare
	// Shifted-Zipf tail weights, normalized to the residual share. The
	// shift keeps every tail registrar below GoDaddy's 1.88% (Table IV:
	// rank 10 is the smallest published share).
	zipfSum := 0.0
	zipfW := make([]float64, tail)
	for i := 0; i < tail; i++ {
		zipfW[i] = 1 / float64(i+16)
		zipfSum += zipfW[i]
	}
	for i := 0; i < tail; i++ {
		g.registrarNames = append(g.registrarNames, fmt.Sprintf("Registrar %03d, Inc.", i+11))
		weights = append(weights, tailShare*zipfW[i]/zipfSum)
	}
	g.registrar = simrand.NewWeighted(g.src.Fork("registrar"), weights)
}

func (g *generator) newYearSampler(table map[int]float64) yearSampler {
	ys := yearSampler{years: make([]int, 0, len(table))}
	for y := range table {
		ys.years = append(ys.years, y)
	}
	sort.Ints(ys.years)
	weights := make([]float64, len(ys.years))
	for i, y := range ys.years {
		weights[i] = table[y]
	}
	ys.w = simrand.NewWeighted(g.src, weights)
	return ys
}

func (ys yearSampler) next() int { return ys.years[ys.w.Next()] }

// buildITLDs materializes the 53 iTLD origins: a handful of real ones and
// synthetic CJK/Hangul TLD labels for the rest.
func (g *generator) buildITLDs() {
	real := []string{
		"xn--fiqs8s",   // 中国
		"xn--55qx5d",   // 公司
		"xn--io0a7i",   // 网络
		"xn--3e0b707e", // 한국
		"xn--wgbh1c",   // مصر
	}
	g.reg.ITLDs = append(g.reg.ITLDs, real...)
	langs := []langid.Language{langid.Chinese, langid.Japanese, langid.Korean, langid.Chinese, langid.Arabic}
	for i := len(real); i < NumITLDs; i++ {
		label := g.names.Label(langs[i%len(langs)])
		ace, err := idna.ToASCIILabel(label)
		if err != nil {
			continue
		}
		g.reg.ITLDs = append(g.reg.ITLDs, ace)
	}
	g.itldUnicode = make([]string, len(g.reg.ITLDs))
	for i, tld := range g.reg.ITLDs {
		g.itldUnicode[i] = tld
		if u, err := idna.ToUnicodeLabel(tld); err == nil {
			g.itldUnicode[i] = u
		}
	}
}

// dateInYear returns a date within year, no later than the snapshot.
func (g *generator) dateInYear(year int) time.Time {
	day := g.src.Intn(365)
	t := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, day)
	if t.After(Snapshot) {
		t = Snapshot.AddDate(0, 0, -g.src.Intn(90)-1)
	}
	return t
}

// personalEmail synthesizes a registrant address.
func (g *generator) personalEmail() string {
	g.emailSeq++
	var buf [32]byte
	b := strconv.AppendInt(buf[:0], int64(100000000+g.src.Intn(900000000)), 10)
	b = strconv.AppendInt(b, int64(g.emailSeq%97), 10)
	b = append(b, '@')
	b = append(b, emailProviders[g.src.Intn(len(emailProviders))]...)
	return string(b)
}

// finishDomain fills the correlated fields (WHOIS coverage, hosting,
// certificates, passive DNS) shared by every population, then appends the
// domain to the registry.
func (g *generator) finishDomain(d Domain, p *profile, whoisRate float64) {
	// WHOIS coverage.
	d.HasWHOIS = g.src.Bool(whoisRate)
	// Hosting state.
	d.Hosting = hostingStates[p.hosting.Next()]
	// Certificates: unresolved domains cannot serve one. Deployment draws
	// from the population's rate; parked deployments always present the
	// parking service's certificate, coupling Table V to Table VII.
	if d.Hosting != webprobe.NotResolved && d.Cert == CertNone && g.src.Bool(p.deployRate) {
		if d.Hosting == webprobe.Parked {
			d.Cert = CertShared
		} else {
			d.Cert = certKinds[p.certKind.Next()]
		}
		if d.Cert == CertShared {
			d.SharedCN = TableVIISharedCNs[g.sharedCN.Next()].CN
		}
	}
	// Passive DNS.
	g.fillActivity(&d, p.act)
	g.reg.Domains = append(g.reg.Domains, d)
}

// fillActivity samples the passive-DNS ground truth for a domain. Attack
// populations are observed through the deeper Farsight window, as in the
// paper's §VI-C/§VII-B analyses.
func (g *generator) fillActivity(d *Domain, act activityParams) {
	windowStart := g.pdnsStart
	if d.Attack != AttackNone {
		windowStart = g.farsightStart
	}
	start := d.Created
	if start.Before(windowStart) {
		start = windowStart
	}
	// First query shortly after the observable window opens.
	lag := int(g.src.Exponential(20))
	d.FirstSeen = start.AddDate(0, 0, lag)
	if d.FirstSeen.After(Snapshot) {
		d.FirstSeen = Snapshot.AddDate(0, 0, -1)
	}
	activeDays := g.src.LogNormal(act.ActiveMu, act.ActiveSigma)
	if activeDays < 0.5 {
		activeDays = 0.5
	}
	d.LastSeen = d.FirstSeen.AddDate(0, 0, int(activeDays))
	if d.LastSeen.After(Snapshot) {
		d.LastSeen = Snapshot
	}
	q := int64(g.src.LogNormal(act.QueryMu, act.QuerySigma))
	if q < 1 {
		q = 1
	}
	d.Queries = q
	d.IPs = make([]string, 1+g.src.Intn(3))
	for i := range d.IPs {
		d.IPs[i] = g.segmentIP(g.segZipf.Next())
	}
}

// segmentIP maps a /24 segment rank to a concrete address in it.
func (g *generator) segmentIP(rank int) string {
	var buf [15]byte // "255.255.255.255"
	b := strconv.AppendInt(buf[:0], int64(10+rank/65536), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64((rank/256)%256), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(rank%256), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(1+g.src.Intn(254)), 10)
	return string(b)
}

// whoisRateFor returns the per-TLD WHOIS coverage from Table I.
func whoisRateFor(tld string, isIDN bool) float64 {
	if !isIDN {
		return 0.9 // the non-IDN sample parsed well; not reported, assume high
	}
	for _, row := range TableI {
		if row.TLD == tld {
			return float64(row.WHOIS) / float64(row.IDNs)
		}
	}
	// iTLDs: 1.1% parse success.
	return float64(2226) / float64(208163)
}
