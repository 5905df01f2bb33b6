package feat

import (
	"errors"
	"math"
	"sort"

	"idnlab/internal/simrand"
)

// Example is one labeled training/eval instance: a domain's SLD label
// in both forms, its zone, its registration timeline, and the ground
// truth from the synthetic corpus (zonegen attack populations are
// positives; benign populations negatives).
type Example struct {
	// Label is the Unicode SLD label; ACELabel its wire form.
	Label    string
	ACELabel string
	// TLD is the zone without trailing dot.
	TLD string
	// AgeDays is the registration age at the corpus snapshot; HasAge
	// reports whether a timeline exists for this example.
	AgeDays float64
	HasAge  bool
	// Positive is the ground-truth class.
	Positive bool
	// Eval marks held-out examples (never trained on).
	Eval bool
	// Population names the generator population ("homograph",
	// "benign-idn", ...) for the per-population recall breakdown.
	Population string
}

// Split partitions examples into the train and held-out eval sets.
func Split(exs []Example) (train, eval []Example) {
	for _, e := range exs {
		if e.Eval {
			eval = append(eval, e)
		} else {
			train = append(train, e)
		}
	}
	return train, eval
}

// Training constants. SGD starts at step size learnRate, decayed per
// epoch, under ridge penalty l2. The prefilter floor is the largest raw
// threshold keeping at least targetRecall on training positives under
// serving conditions (margin over the 0.95 eval gate). The flag
// threshold maximizes F1 only among thresholds keeping at least
// flagRecall on training positives: an unconstrained F1 maximum
// overfits, because the bigram table memorizes training attacks and
// pushes their scores far above where held-out attacks land. Bigrams
// seen fewer than minBigramCount times in training are dropped: rare
// bigrams are noise and bloat the table.
const (
	learnRate      = 0.5
	l2             = 1e-4
	targetRecall   = 0.995
	flagRecall     = 0.85
	minBigramCount = 3
)

// TrainConfig parameterizes Train. The zero value selects defaults
// that converge on the synthetic corpus at any scale.
type TrainConfig struct {
	// Seed drives every stochastic choice (shuffles); identical
	// (examples, config) inputs produce bit-identical models.
	Seed uint64
	// Epochs is the number of SGD passes (default 8).
	Epochs int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	return c
}

// TrainReport summarizes a training run.
type TrainReport struct {
	TrainExamples int     `json:"trainExamples"`
	EvalExamples  int     `json:"evalExamples"`
	Positives     int     `json:"positives"` // in the train split
	Negatives     int     `json:"negatives"`
	Bigrams       int     `json:"bigrams"`
	Epochs        int     `json:"epochs"`
	FinalLoss     float64 `json:"finalLoss"` // mean weighted log-loss, last epoch
	FlagRaw       float64 `json:"flagRaw"`
	PrefilterRaw  float64 `json:"prefilterRaw"`
	// TrainPassRate / TrainRecall are the prefilter's pass rate over
	// all training examples and recall over training positives, both
	// under serving conditions (no registration timeline).
	TrainPassRate float64 `json:"trainPassRate"`
	TrainRecall   float64 `json:"trainRecall"`
}

// Train fits the classifier on the non-held-out examples: counts the
// bigram and TLD log-odds tables, runs a seeded SGD over the logistic
// layer, and selects both decision thresholds from training scores.
// The returned model went through a full encode/Load round trip, so it
// scores through the identical zero-copy path a disk-loaded model does.
func Train(exs []Example, cfg TrainConfig) (*Model, *TrainReport, error) {
	cfg = cfg.withDefaults()
	train, eval := Split(exs)
	pos, neg := 0, 0
	for _, e := range train {
		if e.Positive {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, nil, errors.New("feat: training needs at least one positive and one negative example")
	}

	// Stage 1: the trained tables, counted on the train split only.
	params := modelParams{seed: cfg.Seed}
	params.bigramKeys, params.bigramVals = countBigrams(train, minBigramCount)
	params.tldPrior = countTLDPriors(train)
	tableModel, err := Load(encode(params))
	if err != nil {
		return nil, nil, err
	}

	// Stage 2: featurize once. Each example contributes two instances —
	// one with its labeled registration timeline and one under serving
	// conditions (timeline hidden) — so the model cannot lean on a
	// signal the online path does not have.
	type inst struct {
		v Vector
		y float64
		w float64
	}
	// Balance the classes: the synthetic corpus is dominated by benign
	// registrations (as real zones are), and an unweighted fit would
	// park every attack below the decision boundary.
	posW := min(max(float64(neg)/float64(pos), 1), 100)
	insts := make([]inst, 0, 2*len(train))
	for _, e := range train {
		y, w := 0.0, 1.0
		if e.Positive {
			y, w = 1, posW
		}
		var a, b inst
		tableModel.Featurize(e.Label, e.ACELabel, e.TLD, e.AgeDays, e.HasAge, &a.v)
		a.y, a.w = y, w
		tableModel.Featurize(e.Label, e.ACELabel, e.TLD, 0, false, &b.v)
		b.y, b.w = y, w
		insts = append(insts, a, b)
	}

	// Stage 3: seeded SGD over the logistic layer.
	rng := simrand.New(cfg.Seed).Fork("feat.sgd")
	var w [NumFeatures]float64
	bias := 0.0
	finalLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		lr := learnRate / (1 + float64(epoch))
		loss, wsum := 0.0, 0.0
		for i := range insts {
			in := &insts[i]
			margin := bias
			for f := 0; f < NumFeatures; f++ {
				margin += w[f] * in.v[f]
			}
			p := 1 / (1 + math.Exp(-margin))
			loss += in.w * logLoss(p, in.y)
			wsum += in.w
			g := in.w * (p - in.y)
			bias -= lr * g
			for f := 0; f < NumFeatures; f++ {
				w[f] -= lr * (g*in.v[f] + l2*w[f])
			}
		}
		finalLoss = loss / wsum
	}
	params.bias = bias
	params.weights = w

	// Stage 4: thresholds from training scores under serving conditions
	// (the only conditions the online gate ever sees).
	scored := make([]scoredExample, len(train))
	m0, err := Load(encode(params))
	if err != nil {
		return nil, nil, err
	}
	for i, e := range train {
		scored[i] = scoredExample{raw: m0.ScoreLabel(e.Label, e.ACELabel, e.TLD), pos: e.Positive}
	}
	params.flagRaw = selectFlagThreshold(scored, flagRecall)
	params.prefilterRaw = selectPrefilterThreshold(scored, targetRecall)

	m, err := Load(encode(params))
	if err != nil {
		return nil, nil, err
	}
	rep := &TrainReport{
		TrainExamples: len(train),
		EvalExamples:  len(eval),
		Positives:     pos,
		Negatives:     neg,
		Bigrams:       len(params.bigramKeys),
		Epochs:        cfg.Epochs,
		FinalLoss:     finalLoss,
		FlagRaw:       params.flagRaw,
		PrefilterRaw:  params.prefilterRaw,
	}
	passed, passedPos := 0, 0
	for _, s := range scored {
		if s.raw >= params.prefilterRaw {
			passed++
			if s.pos {
				passedPos++
			}
		}
	}
	rep.TrainPassRate = float64(passed) / float64(len(scored))
	rep.TrainRecall = float64(passedPos) / float64(pos)
	return m, rep, nil
}

func logLoss(p, y float64) float64 {
	const eps = 1e-12
	if y == 1 {
		return -math.Log(math.Max(p, eps))
	}
	return -math.Log(math.Max(1-p, eps))
}

// countBigrams builds the interned bigram log-odds table from the train
// split: Laplace-smoothed class-conditional frequencies, clamped to
// ±4, keyed by packed rune pairs with boundary markers, sorted for the
// zero-copy binary search.
func countBigrams(train []Example, minCount int) ([]uint64, []float64) {
	type counts struct{ pos, neg int }
	tab := map[uint64]*counts{}
	posTot, negTot := 0, 0
	bump := func(key uint64, pos bool) {
		c := tab[key]
		if c == nil {
			c = &counts{}
			tab[key] = c
		}
		if pos {
			c.pos++
			posTot++
		} else {
			c.neg++
			negTot++
		}
	}
	for _, e := range train {
		prev := bigramStart
		for _, r := range e.Label {
			bump(bigramKey(prev, r), e.Positive)
			prev = r
		}
		bump(bigramKey(prev, bigramEnd), e.Positive)
	}
	keys := make([]uint64, 0, len(tab))
	for k, c := range tab {
		if c.pos+c.neg >= minCount {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]float64, len(keys))
	v := float64(len(keys)) + 1
	for i, k := range keys {
		c := tab[k]
		lo := math.Log((float64(c.pos)+1)/(float64(posTot)+v)) -
			math.Log((float64(c.neg)+1)/(float64(negTot)+v))
		if lo > 4 {
			lo = 4
		} else if lo < -4 {
			lo = -4
		}
		vals[i] = lo
	}
	return keys, vals
}

// countTLDPriors builds the 5-class TLD log-odds prior from the train
// split, Laplace-smoothed and clamped like the bigram table.
func countTLDPriors(train []Example) [NumTLDClasses]float64 {
	var pos, neg [NumTLDClasses]int
	posTot, negTot := 0, 0
	for _, e := range train {
		c := TLDClass(e.TLD)
		if e.Positive {
			pos[c]++
			posTot++
		} else {
			neg[c]++
			negTot++
		}
	}
	var out [NumTLDClasses]float64
	for c := 0; c < NumTLDClasses; c++ {
		lo := math.Log((float64(pos[c])+1)/(float64(posTot)+NumTLDClasses)) -
			math.Log((float64(neg[c])+1)/(float64(negTot)+NumTLDClasses))
		if lo > 2 {
			lo = 2
		} else if lo < -2 {
			lo = -2
		}
		out[c] = lo
	}
	return out
}

type scoredExample struct {
	raw float64
	pos bool
}

// selectFlagThreshold sweeps every decision boundary over the training
// scores and returns the raw margin maximizing F1 among boundaries
// keeping at least minRecall of training positives (falling back to
// the unconstrained maximum when no boundary satisfies it).
func selectFlagThreshold(scored []scoredExample, minRecall float64) float64 {
	s := make([]scoredExample, len(scored))
	copy(s, scored)
	sort.Slice(s, func(i, j int) bool {
		if s[i].raw != s[j].raw {
			return s[i].raw > s[j].raw
		}
		return s[i].pos && !s[j].pos
	})
	totalPos := 0
	for _, e := range s {
		if e.pos {
			totalPos++
		}
	}
	bestF1, bestThr := -1.0, 0.0
	bestConF1, bestConThr, haveCon := -1.0, 0.0, false
	tp, fp := 0, 0
	for i := 0; i < len(s); i++ {
		if s[i].pos {
			tp++
		} else {
			fp++
		}
		// Only cut between distinct scores: everything scoring the same
		// lands on the same side of any threshold.
		if i+1 < len(s) && s[i+1].raw == s[i].raw {
			continue
		}
		if tp == 0 {
			continue
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(totalPos)
		f1 := 2 * prec * rec / (prec + rec)
		thr := s[i].raw - 1e-9
		if i+1 < len(s) {
			thr = (s[i].raw + s[i+1].raw) / 2
		}
		if f1 > bestF1 {
			bestF1, bestThr = f1, thr
		}
		if rec >= minRecall && f1 > bestConF1 {
			bestConF1, bestConThr, haveCon = f1, thr, true
		}
	}
	if haveCon {
		return bestConThr
	}
	return bestThr
}

// selectPrefilterThreshold returns the largest raw margin keeping at
// least targetRecall of training positives at or above it — the
// highest floor (fewest SSIM rescans) that still meets the recall
// contract with margin.
func selectPrefilterThreshold(scored []scoredExample, targetRecall float64) float64 {
	var posRaws []float64
	for _, e := range scored {
		if e.pos {
			posRaws = append(posRaws, e.raw)
		}
	}
	sort.Float64s(posRaws)
	// Allow the lowest (1-targetRecall) fraction of positives to fall
	// below the floor.
	drop := int(float64(len(posRaws)) * (1 - targetRecall))
	if drop >= len(posRaws) {
		drop = len(posRaws) - 1
	}
	return posRaws[drop] - 1e-9
}
