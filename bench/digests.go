package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
)

// digestTable holds a digest of every product of the leading requests of
// each workload, per seed: table[workload][seed][request][product]. A
// digest is the first 64 bits of the product's SHA-256, in hex.
type digestTable map[string]map[string][]map[string]string

//go:embed testdata/digests.json
var storedDigests []byte

// -update records the first storedRequests requests of every workload at
// seeds 0 to digestSeeds.
const (
	storedRequests = 8
	digestSeeds    = 10
)

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(storedDigests, &t); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return t, nil
}

// want returns the stored digests of a workload's requests at a seed, nil
// when the seed has none.
func (t digestTable) want(workload string, seed uint64) []map[string]string {
	return t[workload][strconv.FormatUint(seed, 10)]
}

func digests(ps []product) map[string]string {
	out := make(map[string]string, len(ps))
	for _, p := range ps {
		sum := sha256.Sum256(p.data)
		out[p.name] = hex.EncodeToString(sum[:8])
	}
	return out
}

// updateDigests recomputes the table for seeds 0..digestSeeds through the
// untraced path and writes it to path.
func updateDigests(path string, sc scale, log io.Writer) error {
	t := digestTable{}
	for _, wl := range workloads {
		t[wl.name] = map[string][]map[string]string{}
		for seed := uint64(0); seed <= digestSeeds; seed++ {
			srv, err := wl.setup(seed, sc, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			var reqs []map[string]string
			for i := 0; i < storedRequests; i++ {
				ps, err := srv.serve(i, nil)
				if err != nil {
					srv.close()
					return fmt.Errorf("%s seed %d request %d: %w", wl.name, seed, i, err)
				}
				reqs = append(reqs, digests(ps))
			}
			if err := srv.close(); err != nil {
				return err
			}
			t[wl.name][strconv.FormatUint(seed, 10)] = reqs
			fmt.Fprintf(log, "bench: %s seed %d: %d requests\n", wl.name, seed, len(reqs))
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker counts every output checked and every failure: a request that
// errors, breaks an invariant, differs from its stored digests or from
// another path's output of the same request.
type checker struct {
	want              []map[string]string
	attempted, failed int
	log               io.Writer
}

// check records one output and returns its digests (nil on error). same,
// when non-nil, is what another path produced for the same request.
func (c *checker) check(what string, i int, ps []product, err error, same map[string]string) map[string]string {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "bench: %s %d failed: %v\n", what, i, err)
		return nil
	}
	got := digests(ps)
	switch {
	case i < len(c.want) && !maps.Equal(got, c.want[i]):
		c.failed++
		fmt.Fprintf(c.log, "bench: %s %d: outputs differ from the stored digests\n", what, i)
	case same != nil && !maps.Equal(got, same):
		c.failed++
		fmt.Fprintf(c.log, "bench: %s %d: outputs differ from the other path's\n", what, i)
	}
	return got
}
