package network

import (
	"encoding/json"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/mesh"
)

// FuzzSpecBuild: any JSON-decoded Spec that Validate accepts must build
// without panicking (New may still return an error, e.g. for a radix
// that is not a power of two). Specs reach New from service requests,
// so this is an external input boundary.
func FuzzSpecBuild(f *testing.F) {
	faulty := basicHybrid(8)
	faulty.Faults = fault.Config{Seed: 7, CorruptRate: 1e-4, DropRate: 1e-4,
		Stuck: []fault.Stuck{{Tree: 1, Heap: 1, Port: 0, After: 3}}}
	composed := optHybrid(4)
	composed.Chiplet = chiplet.Default(2, 2)
	tree := Spec{Name: "MeshTree", N: 16, PacketLen: 5, Mesh: &mesh.Size{W: 4, H: 4}}
	for _, spec := range append(allSpecs(8), faulty, composed, tree) {
		if _, err := New(spec); err != nil {
			f.Fatalf("seed %s does not build: %v", spec.Name, err)
		}
		addSpecSeed(f, spec)
	}
	// Invalid mesh seeds: 65 tiles, and a fault layer on a mesh.
	tooBig := Spec{Name: "Mesh13x5", N: 65, PacketLen: 5, Mesh: &mesh.Size{W: 13, H: 5}}
	faultyMesh := tree
	faultyMesh.Faults = faulty.Faults
	for _, spec := range []Spec{tooBig, faultyMesh} {
		if spec.Validate() == nil {
			f.Fatalf("invalid seed %s validates", spec.Name)
		}
		addSpecSeed(f, spec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		_, _ = New(spec)
	})
}

// addSpecSeed adds spec's JSON to the fuzz corpus.
func addSpecSeed(f *testing.F, spec Spec) {
	b, err := json.Marshal(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
}
