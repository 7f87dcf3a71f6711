package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunQuickAll exercises the whole experiment pipeline end to end at
// CI scale.
func TestRunQuickAll(t *testing.T) {
	if err := run([]string{"-quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// goldenOutput is the committed paper-scale output of this command.
const goldenOutput = "../../docs/experiments_output.txt"

// TestRunGoldenOutput pins every reported number: the paper-scale run
// must reproduce the committed output line for line, except the A8
// wall-time cells, which measure the machine. The file is generated on
// amd64; a platform whose compiler fuses multiply-adds may round some
// results differently.
func TestRunGoldenOutput(t *testing.T) {
	want, err := os.ReadFile(goldenOutput)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	gl := maskWallTimes(strings.Split(got.String(), "\n"))
	wl := maskWallTimes(strings.Split(string(want), "\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("first difference at %s:%d\n got: %q\nwant: %q\nif the change is intended, regenerate the file with\n\tgo run ./cmd/experiments > docs/experiments_output.txt",
				goldenOutput, i+1, g, w)
		}
	}
}

var wallTimeCell = regexp.MustCompile(`^[0-9]+\.[0-9]+$`)

// maskWallTimes replaces each cell of the A8 wall-time table with "#" and
// collapses that table's padding, whose width follows the cells. Every
// other line is left as it is.
func maskWallTimes(lines []string) []string {
	inA8 := false
	for i, l := range lines {
		if strings.HasPrefix(l, "== Extension A8:") {
			inA8 = true
			continue
		}
		if !inA8 {
			continue
		}
		if l == "" {
			inA8 = false
			continue
		}
		f := strings.Fields(l)
		for k := range f {
			if wallTimeCell.MatchString(f[k]) {
				f[k] = "#"
			}
		}
		lines[i] = strings.Join(f, " ")
	}
	return lines
}

func TestRunSingleExperiments(t *testing.T) {
	for _, only := range []string{
		"tableII", "fig6", "tableIII", "fig7", "fig8",
		"tableVII", "fig15", "provisioning", "multicloud", "clustering",
	} {
		if err := run([]string{"-quick", "-only", only}, io.Discard); err != nil {
			t.Fatalf("%s: %v", only, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "tableIX"}, io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	for _, only := range []string{"fig6", "tableVII"} {
		if err := run([]string{"-quick", "-only", only, "-csvdir", dir}, io.Discard); err != nil {
			t.Fatalf("%s: %v", only, err)
		}
	}
	for _, f := range []string{"fig6.csv", "tableVII.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("%s not written: %v", f, err)
		}
	}
}
