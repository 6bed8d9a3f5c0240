package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
)

// variants is how many input variants a seed selects among. Expected
// outputs ship for every variant at benchmark size, so any seed is
// checkable; the default seed 1 and the held-out seed 11 are two of them.
const variants = 16

// expectedJSON holds, per workload, size and variant, the SHA-256 of every
// output the oracle compares: figure records as json.Marshal encodes them.
// Regenerate with
//
//	go run . -write-expected expected.json
//
// only when the modelled machine changes on purpose.
//
//go:embed expected.json
var expectedJSON []byte

// expectedFile is expected.json: workload → size key → variant → output
// name → digest.
type expectedFile map[string]map[string]map[string]map[string]string

// sizeKey names a workload size inside expected.json.
func sizeKey(size any) string { return fmt.Sprintf("%+v", size) }

// loadExpected returns the digests for one workload size and variant.
func loadExpected(workload string, size any, variant int) (map[string]string, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	want, ok := f[workload][sizeKey(size)][strconv.Itoa(variant)]
	if !ok {
		return nil, fmt.Errorf("expected.json has no output for %s %s variant %d", workload, sizeKey(size), variant)
	}
	return want, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func recordDigest(rec results.Record) (string, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// regenerateExpected recomputes every expected output at benchmark size on
// a pool with no store, so the measured store-backed sweeps are checked
// against a differently executed reference.
func regenerateExpected(path string, log io.Writer) error {
	f := expectedFile{
		"figures": {sizeKey(benchFigures): {}},
	}
	for v := 0; v < variants; v++ {
		p := params{seed: int64(v)}
		fig := newFigures(benchFigures)
		o := fig.options(p)
		o.Pool = runner.NewIsolated(2, runner.NewCache())
		digests := map[string]string{}
		for _, rec := range experiments.AllRecords(o) {
			d, err := recordDigest(rec)
			if err != nil {
				return err
			}
			digests[rec.ID] = d
		}
		f["figures"][sizeKey(benchFigures)][strconv.Itoa(v)] = digests
		fmt.Fprintf(log, "variant %d done\n", v)
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
