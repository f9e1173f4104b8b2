package main

import (
	"strings"
	"testing"
)

func TestRunSingleArtifacts(t *testing.T) {
	// The cheap artifacts that do not require the full corpus sweep.
	for _, only := range []string{"table3", "table5", "table6", "ablation"} {
		if err := run(config{only: only}); err != nil {
			t.Errorf("%s: %v", only, err)
		}
	}
}

func TestRunTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	if err := run(config{only: "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	// -profile over the parallel corpus mode: the per-app fan-out plus the
	// observability rendering must succeed end to end.
	if err := run(config{only: "timing", profile: true}); err != nil {
		t.Fatal(err)
	}
}

// An unknown -only name is an error that lists every valid artifact,
// instead of a silent run that prints nothing.
func TestRunUnknownArtifact(t *testing.T) {
	err := run(config{only: "bogus"})
	if err == nil {
		t.Fatal("-only bogus succeeded")
	}
	for _, name := range append(artifacts, `"bogus"`) {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if !strings.Contains(err.Error(), "slicefraction") {
		t.Errorf("error %q omits slicefraction", err)
	}
}
