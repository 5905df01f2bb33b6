package feat

import "idnlab/internal/zonegen"

// TrainCorpus generates the synthetic universe at (seed, scale),
// derives its labels and trains a model on them.
func TrainCorpus(seed uint64, scale int, cfg TrainConfig) (*Model, *TrainReport, []Example, error) {
	reg := zonegen.Generate(zonegen.Config{Seed: seed, Scale: scale})
	exs := FromLabeled(reg.Labels())
	if cfg.Seed == 0 {
		cfg.Seed = seed
	}
	m, rep, err := Train(exs, cfg)
	return m, rep, exs, err
}
