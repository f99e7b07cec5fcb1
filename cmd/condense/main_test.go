package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/dataset"
)

// writeInput writes a small classification CSV and returns its path.
func writeInput(t *testing.T) string {
	t.Helper()
	ds := datagen.TwoGaussians(1, 40, 3, 8)
	path := filepath.Join(t.TempDir(), "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	var stderr bytes.Buffer
	err := run([]string{"-in", in, "-out", out, "-k", "5", "-seed", "3"},
		strings.NewReader(""), &bytes.Buffer{}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	anon, err := dataset.ReadCSV(f, "anon", dataset.Classification)
	if err != nil {
		t.Fatal(err)
	}
	if anon.Len() != 80 {
		t.Errorf("anonymized %d records, want 80", anon.Len())
	}
	if !strings.Contains(stderr.String(), "condensed 80 records") {
		t.Errorf("report missing: %q", stderr.String())
	}
}

func TestRunDynamicGaussian(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	err := run([]string{"-in", in, "-out", out, "-k", "4", "-mode", "dynamic", "-synthesis", "gaussian"},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStdinStdout(t *testing.T) {
	ds := datagen.TwoGaussians(2, 10, 2, 8)
	var input bytes.Buffer
	if err := dataset.WriteCSV(&input, ds); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{"-in", "-", "-out", "-", "-k", "2"}, &input, &stdout, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "x0,x1,class") {
		t.Errorf("stdout header: %q", strings.SplitN(stdout.String(), "\n", 2)[0])
	}
}

func TestRunFlagErrors(t *testing.T) {
	in := writeInput(t)
	silent := func() (*bytes.Buffer, *bytes.Buffer) { return &bytes.Buffer{}, &bytes.Buffer{} }
	cases := [][]string{
		{},
		{"-in", in},
		{"-in", in, "-out", "x.csv", "-task", "bogus"},
		{"-in", in, "-out", "x.csv", "-mode", "bogus"},
		{"-in", in, "-out", "x.csv", "-synthesis", "bogus"},
		{"-in", "/nonexistent/file.csv", "-out", "x.csv"},
		{"-in", in, "-out", "x.csv", "-log-level", "bogus"},
		{"-in", in, "-out", "x.csv", "-log-format", "bogus"},
	}
	for _, args := range cases {
		o, e := silent()
		if err := run(args, strings.NewReader(""), o, e); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRegressionTask(t *testing.T) {
	ds := datagen.Abalone(3)
	sub, err := ds.Subset(seq(200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reg.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, sub); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(t.TempDir(), "out.csv")
	err = run([]string{"-in", path, "-out", out, "-task", "regression", "-k", "10"},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRunAuditFlag: -audit prints one JSON privacy report per class with
// the size invariant intact and full-sample KS distances.
func TestRunAuditFlag(t *testing.T) {
	in := writeInput(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	var stderr bytes.Buffer
	err := run([]string{"-in", in, "-out", out, "-k", "5", "-audit"},
		strings.NewReader(""), &bytes.Buffer{}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	got := stderr.String()
	if n := strings.Count(got, "privacy audit (class "); n != 2 {
		t.Fatalf("want 2 per-class audit reports, got %d:\n%s", n, got)
	}
	for _, want := range []string{
		`"ks"`,
		`"original_sample": 40`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("audit output missing %q:\n%s", want, got)
		}
	}
	// Every class's groups hold between k and 2k−1 records.
	for _, bound := range []struct {
		field string
		ok    func(n int) bool
	}{
		{"min_group_size", func(n int) bool { return n >= 5 }},
		{"max_group_size", func(n int) bool { return n <= 9 }},
	} {
		m := regexp.MustCompile(`"`+bound.field+`": (\d+)`).FindAllStringSubmatch(got, -1)
		if len(m) != 2 {
			t.Fatalf("want %s in 2 reports, found %d:\n%s", bound.field, len(m), got)
		}
		for _, sub := range m {
			if n, _ := strconv.Atoi(sub[1]); !bound.ok(n) {
				t.Errorf("%s = %d, outside [k, 2k−1] = [5, 9]", bound.field, n)
			}
		}
	}
}

// TestRunTraceOutFlag: -trace-out writes a Chrome trace of the static
// pipeline without changing the anonymized output.
func TestRunTraceOutFlag(t *testing.T) {
	in := writeInput(t)
	dir := t.TempDir()
	plainOut := filepath.Join(dir, "plain.csv")
	tracedOut := filepath.Join(dir, "traced.csv")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run([]string{"-in", in, "-out", plainOut, "-k", "5", "-seed", "2"},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := run([]string{"-in", in, "-out", tracedOut, "-k", "5", "-seed", "2", "-trace-out", tracePath},
		strings.NewReader(""), &bytes.Buffer{}, &stderr); err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(plainOut)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := os.ReadFile(tracedOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, traced) {
		t.Error("tracing changed the anonymized output")
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	for _, want := range []string{`"traceEvents"`, "static.condense"} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace file missing %q", want)
		}
	}
	if !strings.Contains(stderr.String(), "wrote pipeline trace") {
		t.Errorf("stderr missing trace confirmation: %q", stderr.String())
	}
}

func TestRunStatsOutput(t *testing.T) {
	in := writeInput(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	statsPath := filepath.Join(dir, "h.bin")
	err := run([]string{"-in", in, "-out", out, "-k", "5", "-stats", statsPath},
		strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byClass, err := core.ReadClassCondensations(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(byClass) != 2 {
		t.Fatalf("%d classes in statistics file", len(byClass))
	}
	total := 0
	for _, cond := range byClass {
		total += cond.TotalCount()
	}
	if total != 80 {
		t.Errorf("statistics cover %d records, want 80", total)
	}
}
