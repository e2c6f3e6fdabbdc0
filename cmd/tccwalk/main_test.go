package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWalkthroughGolden pins the text each walkthrough prints, byte for
// byte, against testdata/<scenario>.txt.
func TestWalkthroughGolden(t *testing.T) {
	for _, name := range []string{"figure2", "figure3-parallel", "figure3-conflict"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output drifted from testdata/%s.txt:\n%s", name, name, got.String())
			}
		})
	}
}

func TestUnknownScenario(t *testing.T) {
	if err := run(&bytes.Buffer{}, "nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
