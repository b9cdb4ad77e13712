package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput: the exported DNFs — variable names, probability
// bits and clause order — match the committed files byte for byte.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct{ file, args string }{
		{"tpch-b9.dnf", "-w tpch-b9"},
		{"skew-join-rows200.dnf", "-w skew-join -rows 200"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(strings.Fields(tc.args), &got); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("genworkload %s differs from testdata/%s", tc.args, tc.file)
		}
	}
}
