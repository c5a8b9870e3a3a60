package store

import (
	"testing"
)

// TestVersionGEAnnotations: advisory GE annotations attach to retained
// revisions, surface in Versions, and vanish with pruned versions.
func TestVersionGEAnnotations(t *testing.T) {
	s := OpenMemory(WithMaxVersions(2))
	defer s.Close()

	if _, ok := versionGE(s, "m", 1); ok {
		t.Fatal("annotation on missing model")
	}
	s.SetVersionGE("m", 1, 0.5) // no such model: ignored, no panic

	rules := testRules(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := s.PutContext(bg, "m", rules); err != nil {
			t.Fatal(err)
		}
	}
	// Versions 2 and 3 are retained (max 2), version 1 pruned.
	s.SetVersionGE("m", 2, 0.25)
	s.SetVersionGE("m", 1, 0.75) // pruned: ignored

	if ge, ok := versionGE(s, "m", 2); !ok || ge != 0.25 {
		t.Fatalf("VersionGE(2) = %v/%v, want 0.25/true", ge, ok)
	}
	if _, ok := versionGE(s, "m", 3); ok {
		t.Fatal("unannotated version reported an annotation")
	}
	if _, ok := versionGE(s, "m", 1); ok {
		t.Fatal("pruned version reported an annotation")
	}

	infos, ok := s.Versions("m")
	if !ok || len(infos) != 2 {
		t.Fatalf("Versions = %v/%v", infos, ok)
	}
	if infos[0].Version != 2 || infos[0].GE == nil || *infos[0].GE != 0.25 {
		t.Fatalf("infos[0] = %+v, want GE 0.25", infos[0])
	}
	if infos[1].GE != nil {
		t.Fatalf("infos[1] = %+v, want no GE", infos[1])
	}

	// Overwrite sticks.
	s.SetVersionGE("m", 2, 0.125)
	if ge, _ := versionGE(s, "m", 2); ge != 0.125 {
		t.Fatalf("overwritten GE = %v, want 0.125", ge)
	}
}

// TestFailedAccessor: a healthy store reports nil; the wedge state is
// covered end to end in wal_failure_test.go.
func TestFailedAccessor(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if err := s.Failed(); err != nil {
		t.Fatalf("Failed() on healthy store = %v", err)
	}
}
