package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// digestDir hashes every file in dir by name.
func digestDir(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][32]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(data)
	}
	return out
}

func TestInputsByteIdenticalPerSeed(t *testing.T) {
	for name, sz := range workloads {
		t.Run(name, func(t *testing.T) {
			sz.Scale = 0.002
			gen := func(seed int64) map[string][32]byte {
				s, _, err := generate(options{seed: seed, sizes: sz})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				in, err := writeInputs(name, s, sz, dir)
				if err != nil {
					t.Fatal(err)
				}
				if in.sslRows < 1 || len(in.parts) < 1 {
					t.Fatalf("empty inputs: %+v", in)
				}
				return digestDir(t, dir)
			}
			a, b, c := gen(1), gen(1), gen(2)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("file sets differ: %d vs %d", len(a), len(b))
			}
			same := true
			for f, d := range a {
				if b[f] != d {
					t.Errorf("seed 1 file %s differs between generations", f)
				}
				same = same && c[f] == d
			}
			if same {
				t.Error("seeds 1 and 2 generated identical inputs")
			}
		})
	}
}
