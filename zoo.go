package clockwork

import (
	"fmt"

	"clockwork/internal/modelzoo"
)

// RegisterModel makes a model instance servable. zooModel names an entry
// of the embedded catalogue (see ZooModels); instanceName is the name
// requests refer to. Unknown catalogue entries return ErrUnknownModel;
// duplicate instance names return ErrDuplicateModel.
func (s *System) RegisterModel(instanceName, zooModel string) error {
	m, ok := modelzoo.ByName(zooModel)
	if !ok {
		return fmt.Errorf("%w: no zoo model %q", ErrUnknownModel, zooModel)
	}
	return s.cluster.RegisterModel(instanceName, m)
}

// RegisterCopies registers n instances of zooModel named "<base>#i" and
// returns their instance names. Unknown zoo models are ErrUnknownModel;
// a name collision is ErrDuplicateModel.
func (s *System) RegisterCopies(base, zooModel string, n int) ([]string, error) {
	m, ok := modelzoo.ByName(zooModel)
	if !ok {
		return nil, fmt.Errorf("%w: no zoo model %q", ErrUnknownModel, zooModel)
	}
	return s.cluster.RegisterCopies(base, m, n)
}

// Models returns the currently registered model instance names in
// registration order — the live inventory, as opposed to ZooModels
// (the static catalogue instances are created from). In live mode call
// it through Live.Do.
func (s *System) Models() []string { return s.cluster.ModelNames() }

// ModelCount returns the number of registered model instances without
// copying the name list.
func (s *System) ModelCount() int { return s.cluster.ModelCount() }

// ZooModels returns the names of the embedded model catalogue
// (the paper's Appendix A, Table 1).
func ZooModels() []string {
	all := modelzoo.All()
	names := make([]string, len(all))
	for i, m := range all {
		names[i] = m.Name
	}
	return names
}

// ZooFamilies returns the catalogue's model families.
func ZooFamilies() []string { return modelzoo.Families() }

// ModelSpec describes one catalogue entry.
type ModelSpec struct {
	Name       string
	Family     string
	WeightsMB  float64
	InputKB    float64
	OutputKB   float64
	TransferMs float64
	// ExecMs holds execution latency at batch sizes 1, 2, 4, 8, 16.
	ExecMs [5]float64
}

func specOf(m *modelzoo.Model) ModelSpec {
	return ModelSpec{
		Name:       m.Name,
		Family:     m.Family,
		WeightsMB:  m.WeightsMB,
		InputKB:    m.InputKB,
		OutputKB:   m.OutputKB,
		TransferMs: m.TransferMs,
		ExecMs:     m.ExecMs,
	}
}

// ZooInfo returns the catalogue entry for name.
func ZooInfo(name string) (ModelSpec, bool) {
	m, ok := modelzoo.ByName(name)
	if !ok {
		return ModelSpec{}, false
	}
	return specOf(m), true
}

// ZooSpecs returns catalogue entries, optionally filtered by family
// (empty string = all), in catalogue order.
func ZooSpecs(family string) []ModelSpec {
	models := modelzoo.All()
	if family != "" {
		models = modelzoo.ByFamily(family)
	}
	specs := make([]ModelSpec, len(models))
	for i, m := range models {
		specs[i] = specOf(m)
	}
	return specs
}
