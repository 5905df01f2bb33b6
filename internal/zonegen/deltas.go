package zonegen

// Day-over-day zone deltas. The paper's study is a one-shot snapshot;
// continuous brand protection watches *new registrations* as they appear
// in zone files. This file teaches the generator to evolve its universe
// one day at a time — new registrations (including fresh homograph
// attacks against the brand list), dropped delegations, and name-server
// changes — and to serialize each day as an IXFR-style delta that
// round-trips through zonefile.Scanner.
//
// Delta text format (RFC 1995 section layout over RFC 1035 master
// syntax): per changed zone, an $ORIGIN directive, a $TTL directive and
// an SOA header carrying the new serial, then one or more rounds of
//
//	SOA <old serial>   ; deletion section follows
//	<deleted records>
//	SOA <new serial>   ; addition section follows
//	<added records>
//
// A dropped delegation appears only in the deletion section, a new
// registration only in the addition section, and an NS change in both
// (old target deleted, new target added) — exactly how a registry
// expresses the three operations in a real incremental zone transfer.
// Everything is plain master-file syntax, so the stream parses with the
// ordinary zonefile.Scanner and needs no second parser.
//
// Determinism: the whole stream derives from the registry's seed. The
// same Config and DeltaConfig always produce a byte-identical sequence
// of delta files, which is what makes the watch tier's replay and
// equivalence tests exact rather than statistical.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"idnlab/internal/brands"
	"idnlab/internal/confusables"
	"idnlab/internal/idna"
	"idnlab/internal/simrand"
)

// SerialBase is the SOA serial of the day-0 snapshot; the day-N delta
// advances the serial to SerialBase+N.
const SerialBase uint32 = 2017080100

// deltaSOA is the fixed SOA payload prefix shared by every delta header
// (mname, rname); only the serial varies between records.
const deltaSOA = "ns1.registry.example. hostmaster.registry.example."

// nsPool is the deterministic set of delegation targets. The first entry
// is the snapshot default (BuildZones delegates everything to
// dns-host.net); deltas move domains between pool entries.
var nsPool = []string{
	"dns-host.net",
	"parking-dns.net",
	"sedo-ns.com",
	"dnspod.example",
	"cloud-ns.org",
}

// DeltaOp is the kind of one domain-level change.
type DeltaOp uint8

// Delta operations.
const (
	DeltaAdd DeltaOp = iota
	DeltaDrop
	DeltaNSChange
)

// String returns the mnemonic used in logs and tests.
func (op DeltaOp) String() string {
	switch op {
	case DeltaAdd:
		return "add"
	case DeltaDrop:
		return "drop"
	case DeltaNSChange:
		return "nschange"
	}
	return "unknown"
}

// DeltaRecord is one domain-level change inside a day's delta.
type DeltaRecord struct {
	// Op is the change kind.
	Op DeltaOp
	// Owner is the delegated label (ACE form, relative to the zone).
	Owner string
	// Unicode is the display form of the label (adds only).
	Unicode string
	// NS is the delegation target after the change ("" for drops); OldNS
	// the target before it (drops and NS changes).
	NS    string
	OldNS string
	// Attack marks generated abuse registrations and their target brand
	// (ground truth; never serialized into the delta text).
	Attack      AttackKind
	TargetBrand string
}

// ZoneDelta groups one day's changes to a single zone.
type ZoneDelta struct {
	// Origin is the zone apex (ACE form, no trailing dot).
	Origin string
	// Records holds the changes in generation order.
	Records []DeltaRecord
}

// DayDelta is one day of registry churn across all zones.
type DayDelta struct {
	// Day is 1-based; serial is SerialBase+Day.
	Day    int
	Serial uint32
	// Zones lists the changed zones in ascending origin order.
	Zones []ZoneDelta
}

// asciiShare is the fraction of benign adds that are plain-ASCII
// registrations: most zone churn is not IDN.
const asciiShare = 0.55

// DeltaConfig parameterizes delta generation. Zero values select
// defaults scaled to the registry size.
type DeltaConfig struct {
	// AddsPerDay is the number of new registrations per day (default
	// max(24, len(Domains)/25)).
	AddsPerDay int
	// DropsPerDay is the number of deleted delegations per day (default
	// AddsPerDay/3).
	DropsPerDay int
	// NSChangesPerDay is the number of re-delegations per day (default
	// AddsPerDay/4).
	NSChangesPerDay int
	// AttackShare is the fraction of adds that are homograph attacks
	// against the brand list (default 0.05).
	AttackShare float64
	// AttackTopK bounds attack targets to the top-K brands (default 100).
	AttackTopK int
}

func (c DeltaConfig) withDefaults(registrySize int) DeltaConfig {
	if c.AddsPerDay <= 0 {
		c.AddsPerDay = registrySize / 25
		if c.AddsPerDay < 24 {
			c.AddsPerDay = 24
		}
	}
	if c.DropsPerDay <= 0 {
		c.DropsPerDay = c.AddsPerDay / 3
	}
	if c.NSChangesPerDay <= 0 {
		c.NSChangesPerDay = c.AddsPerDay / 4
	}
	if c.AttackShare <= 0 {
		c.AttackShare = 0.05
	}
	if c.AttackTopK <= 0 {
		c.AttackTopK = 100
	}
	return c
}

// liveDomain is one delegation in the evolving live set.
type liveDomain struct {
	owner  string // ACE label
	origin string // zone apex
	ns     string // current delegation target (pool entry)
}

// DeltaGen evolves the registry's zones one day at a time. Build with
// Registry.DeltaStream; each Next call advances one day. A DeltaGen is
// not safe for concurrent use.
type DeltaGen struct {
	cfg   DeltaConfig
	src   *simrand.Source
	names *nameGen
	tab   *confusables.Table
	lang  *simrand.Weighted
	tlds  *simrand.Weighted // over gtldNames

	day     int
	live    []liveDomain
	targets []brands.Brand
	// variants[i] is what an attack on targets[i] draws its label from,
	// computed on the first attack (nil until then).
	variants [][]string
}

// DeltaStream builds the day-over-day churn generator for this registry.
// The stream is fully determined by the registry's seed and cfg: the
// same inputs always yield a byte-identical delta sequence.
func (r *Registry) DeltaStream(cfg DeltaConfig) *DeltaGen {
	cfg = cfg.withDefaults(len(r.Domains))
	src := simrand.New(r.Cfg.Seed).Fork("deltas")
	g := &DeltaGen{
		cfg:     cfg,
		src:     src,
		names:   newNameGen(src.Fork("delta-names"), len(r.Domains)+cfg.AddsPerDay),
		tab:     confusables.Default(),
		tlds:    simrand.NewWeighted(src, gtldWeights),
		targets: brands.TopK(cfg.AttackTopK),
	}
	g.variants = make([][]string, len(g.targets))
	// Benign adds follow the paper's Table II language mix.
	langW := make([]float64, len(TableIILanguages))
	for i, lw := range TableIILanguages {
		langW[i] = lw.Weight
	}
	g.lang = simrand.NewWeighted(src.Fork("delta-lang"), langW)
	// Seed the live set (and the uniqueness census) from the snapshot so
	// deltas never re-register an existing name.
	g.live = make([]liveDomain, 0, len(r.Domains))
	for i := range r.Domains {
		d := &r.Domains[i]
		owner := strings.TrimSuffix(d.ACE, "."+d.TLD)
		g.live = append(g.live, liveDomain{owner: owner, origin: d.TLD, ns: nsPool[0]})
		if lbl, _, ok := strings.Cut(d.Unicode, "."); ok {
			g.names.seen[lbl] = struct{}{}
		}
	}
	return g
}

// Live returns the current number of live delegations.
func (g *DeltaGen) Live() int { return len(g.live) }

// Next generates the following day's delta.
func (g *DeltaGen) Next() *DayDelta {
	g.day++
	d := &DayDelta{Day: g.day, Serial: SerialBase + uint32(g.day)}
	byZone := make(map[string]*ZoneDelta)
	zone := func(origin string) *ZoneDelta {
		z, ok := byZone[origin]
		if !ok {
			z = &ZoneDelta{Origin: origin}
			byZone[origin] = z
		}
		return z
	}
	// One change per owner per day: a domain dropped today cannot also
	// re-delegate, and a same-day second pick retries elsewhere.
	touched := make(map[string]struct{})

	// Drops first: they act on the pre-churn live set.
	for i := 0; i < g.cfg.DropsPerDay && len(g.live) > 0; i++ {
		idx, ok := g.pickUntouched(touched)
		if !ok {
			break
		}
		ld := g.live[idx]
		g.live[idx] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		touched[ld.owner+"."+ld.origin] = struct{}{}
		z := zone(ld.origin)
		z.Records = append(z.Records, DeltaRecord{Op: DeltaDrop, Owner: ld.owner, OldNS: ld.ns})
	}

	// Re-delegations.
	for i := 0; i < g.cfg.NSChangesPerDay && len(g.live) > 0; i++ {
		idx, ok := g.pickUntouched(touched)
		if !ok {
			break
		}
		ld := &g.live[idx]
		touched[ld.owner+"."+ld.origin] = struct{}{}
		next := nsPool[1+g.src.Intn(len(nsPool)-1)]
		if next == ld.ns {
			next = nsPool[0]
		}
		z := zone(ld.origin)
		z.Records = append(z.Records, DeltaRecord{Op: DeltaNSChange, Owner: ld.owner, NS: next, OldNS: ld.ns})
		ld.ns = next
	}

	// New registrations: a mix of plain-ASCII churn, benign IDNs, and
	// fresh homograph attacks against the brand list.
	for i := 0; i < g.cfg.AddsPerDay; i++ {
		rec, origin := g.genAdd()
		z := zone(origin)
		z.Records = append(z.Records, rec)
		g.live = append(g.live, liveDomain{owner: rec.Owner, origin: origin, ns: rec.NS})
	}

	origins := make([]string, 0, len(byZone))
	for o := range byZone {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		d.Zones = append(d.Zones, *byZone[o])
	}
	return d
}

// pickUntouched selects a live-set index whose domain has not changed
// today, giving up after a bounded number of rerolls (tiny live sets).
func (g *DeltaGen) pickUntouched(touched map[string]struct{}) (int, bool) {
	for tries := 0; tries < 16; tries++ {
		idx := g.src.Intn(len(g.live))
		ld := g.live[idx]
		if _, dup := touched[ld.owner+"."+ld.origin]; !dup {
			return idx, true
		}
	}
	return 0, false
}

// genAdd synthesizes one new registration.
func (g *DeltaGen) genAdd() (DeltaRecord, string) {
	tld := gtldNames[g.tlds.Next()]
	ns := nsPool[g.src.Intn(len(nsPool))]

	if g.src.Bool(g.cfg.AttackShare) {
		if rec, ok := g.genAttackAdd(ns); ok {
			return rec, tld
		}
	}
	if g.src.Bool(asciiShare) {
		label := g.names.ASCIILabel()
		return DeltaRecord{Op: DeltaAdd, Owner: label, Unicode: label, NS: ns}, tld
	}
	uniLabel := g.names.Label(TableIILanguages[g.lang.Next()].Lang)
	ace, err := idna.ToASCIILabel(uniLabel)
	if err != nil {
		// Unencodable synthetic label (pathological length): fall back to
		// an ASCII registration so the day keeps its add count.
		label := g.names.ASCIILabel()
		return DeltaRecord{Op: DeltaAdd, Owner: label, Unicode: label, NS: ns}, tld
	}
	return DeltaRecord{Op: DeltaAdd, Owner: ace, Unicode: uniLabel, NS: ns}, tld
}

// genAttackAdd synthesizes a homograph registration against a random
// top-K brand, preferring pixel-identical variants (the class the
// detector must flag at any threshold).
func (g *DeltaGen) genAttackAdd(ns string) (DeltaRecord, bool) {
	i := g.src.Intn(len(g.targets))
	b := g.targets[i]
	if g.variants[i] == nil {
		label := b.Label()
		vars := identicalVariants(g.tab, label)
		if len(vars) == 0 {
			vars = g.tab.Variants(label)
		}
		g.variants[i] = append([]string{}, vars...) // non-nil: computed, if empty
	}
	vars := g.variants[i]
	if len(vars) == 0 {
		return DeltaRecord{}, false
	}
	uniLabel := g.names.unique(vars[g.src.Intn(len(vars))])
	ace, err := idna.ToASCIILabel(uniLabel)
	if err != nil {
		return DeltaRecord{}, false
	}
	return DeltaRecord{
		Op: DeltaAdd, Owner: ace, Unicode: uniLabel, NS: ns,
		Attack: AttackHomograph, TargetBrand: b.Domain,
	}, true
}

// WriteTo serializes the day as an IXFR-style master-format delta; see
// the package comment at the top of this file for the exact layout. The
// output is deterministic: zones in ascending origin order, deletions
// before additions, records in generation order.
func (d *DayDelta) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	fmt.Fprintf(bw, "; idnlab zone delta day=%d serial=%d\n", d.Day, d.Serial)
	soa := func(serial uint32) {
		fmt.Fprintf(bw, "@ IN SOA %s %d 900 300 604800 86400\n", deltaSOA, serial)
	}
	nsLine := func(owner, target string) {
		fmt.Fprintf(bw, "%s IN NS ns1.%s.\n", owner, target)
		fmt.Fprintf(bw, "%s IN NS ns2.%s.\n", owner, target)
	}
	for _, z := range d.Zones {
		fmt.Fprintf(bw, "$ORIGIN %s.\n$TTL 86400\n", z.Origin)
		soa(d.Serial) // header: the serial this delta advances to
		soa(d.Serial - 1)
		for _, rec := range z.Records {
			switch rec.Op {
			case DeltaDrop, DeltaNSChange:
				nsLine(rec.Owner, rec.OldNS)
			}
		}
		soa(d.Serial)
		for _, rec := range z.Records {
			switch rec.Op {
			case DeltaAdd, DeltaNSChange:
				nsLine(rec.Owner, rec.NS)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("zonegen: write delta: %w", err)
	}
	return cw.n, nil
}

// countWriter counts bytes for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DeltaFileName is the canonical file name for a day's delta; the serial
// embedded in the name is the watch daemon's input cursor key.
func DeltaFileName(serial uint32) string {
	return fmt.Sprintf("delta-%010d.zone", serial)
}
