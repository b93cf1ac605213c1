package main

import (
	"bytes"
	"testing"
)

// testSeeds are the default seed, the held-out seed, and one more.
var testSeeds = []int64{defaultSeed, heldOutSeed, 7919}

// lists returns every generated request list for seed, by name.
func lists(seed int64) map[string][]request {
	return map[string][]request{
		"hit_repeat": hitKeys(seed, hitKeyCount),
		"cold_plan":  coldList(seed, 3000),
		"certify":    certifyList(seed, certifyListLen),
	}
}

func joined(reqs []request) []byte {
	var b bytes.Buffer
	for i := range reqs {
		b.Write(reqs[i].body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, seed := range testSeeds {
		a, b := lists(seed), lists(seed)
		for name := range a {
			if !bytes.Equal(joined(a[name]), joined(b[name])) {
				t.Errorf("%s, seed %d: two generations differ", name, seed)
			}
		}
		if x, y := zipfSequence(seed, hitKeyCount, 1000), zipfSequence(seed, hitKeyCount, 1000); !equalInts(x, y) {
			t.Errorf("hit_repeat, seed %d: two Zipf sequences differ", seed)
		}
	}
	a, b := lists(testSeeds[0]), lists(testSeeds[1])
	for name := range a {
		if bytes.Equal(joined(a[name]), joined(b[name])) {
			t.Errorf("%s: seeds %d and %d give the same requests", name, testSeeds[0], testSeeds[1])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCanonicalKeysDistinct checks, with the program's own canonical
// key, that no two requests of a list share a plan: cold_plan must miss
// on every request, and hit_repeat must fill every key.
func TestCanonicalKeysDistinct(t *testing.T) {
	for _, seed := range testSeeds {
		for name, reqs := range lists(seed) {
			seen := map[string]int{}
			for i := range reqs {
				p, err := parseProgram(&reqs[i])
				if err != nil {
					t.Fatalf("%s, seed %d: %s does not parse: %v", name, seed, reqs[i].String(), err)
				}
				key := canonicalKey(p, &reqs[i])
				if j, dup := seen[key]; dup {
					t.Errorf("%s, seed %d: requests %d and %d share key %s", name, seed, j, i, key)
				}
				seen[key] = i
			}
		}
	}
}

// TestFourPRule checks that every request's iteration space, as the
// program parses it, holds at least 4·P points and matches the size the
// generator recorded.
func TestFourPRule(t *testing.T) {
	for _, seed := range testSeeds {
		for name, reqs := range lists(seed) {
			for i := range reqs {
				r := &reqs[i]
				p, err := parseProgram(r)
				if err != nil {
					t.Fatalf("%s: %s does not parse: %v", name, r.String(), err)
				}
				if got := spaceSize(p); got != r.points {
					t.Errorf("%s: %s parses to %d points", name, r.String(), got)
				}
				if r.points < 4*int64(r.Procs) {
					t.Errorf("%s: %s has fewer than 4·P points", name, r.String())
				}
			}
		}
	}
}

func TestSkewedDepthLimits(t *testing.T) {
	for _, seed := range testSeeds {
		for _, r := range hitKeys(seed, hitKeyCount) {
			if r.Strategy == "skewed" && r.depth == 3 {
				t.Errorf("hit_repeat requests a 3-D nest as skewed: %s", r.String())
			}
		}
		for _, r := range coldList(seed, 3000) {
			if r.Strategy == "skewed" && r.depth == 3 && r.name != "random" && r.points > coldSkewVolume*int64(r.Procs) {
				t.Errorf("cold_plan skews a paper nest past the volume cap: %s", r.String())
			}
		}
	}
}

// TestCertifyFootprint checks that every random certify nest's arrays
// span at most 32 times its points, over many seeds: the message-passing
// executor keeps a dense copy of each array per processor, so a larger
// box would make peak memory a draw of the seed.
func TestCertifyFootprint(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for _, r := range certifyList(seed, certifyListLen) {
			if r.name == "random" && r.box > 32*r.points {
				t.Errorf("seed %d: %s spans %d elements", seed, r.String(), r.box)
			}
		}
	}
}
