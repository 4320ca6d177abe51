package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/classmem"
	"repro/internal/serve"
)

func TestBuildRegistryDefaultBackends(t *testing.T) {
	store := classmem.NewVersioned(6, 128, 1)
	reg, err := buildRegistry(store, 1, defaultBackends, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if got := reg.Names(); !slices.Equal(got, []string{"binary", "float"}) {
		t.Fatalf("default -backends %q registered %v, want [binary float]", defaultBackends, got)
	}
}

// The analog crossbar's per-query noise breaks the byte-identical
// ranking contract, so the server refuses it, alone or in a list.
func TestBuildRegistryRefusesIMC(t *testing.T) {
	store := classmem.NewVersioned(6, 128, 1)
	for _, list := range []string{"imc", "float,imc"} {
		reg, err := buildRegistry(store, 1, list, serve.Config{})
		if err == nil {
			names := reg.Names()
			reg.Close()
			t.Fatalf("-backends %q registered %v, want an error", list, names)
		}
		if !strings.Contains(err.Error(), "hdczsc") {
			t.Fatalf("-backends %q: error %q does not point to hdczsc", list, err)
		}
	}
}

func TestBuildEmbeddersServesBothPlans(t *testing.T) {
	embs, err := buildEmbedders(64, 1, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, e := range embs {
		if e.Name() != name {
			t.Fatalf("embedder %q registered under %q", e.Name(), name)
		}
		names = append(names, name)
	}
	slices.Sort(names)
	if !slices.Equal(names, []string{"resnet", "resnet-int8"}) {
		t.Fatalf("embedders %v, want [resnet resnet-int8]", names)
	}
}
