package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// The benchmark's inputs. Everything here is generated from the seed
// alone: the nest generator and the paper's example sources are copies
// owned by the benchmark, so no change to the program under test can
// alter the requests that two commits are measured on.

// request is one /v1/plan body plus the facts the generator knows about
// it. Only the four JSON fields cross the wire.
type request struct {
	Source   string           `json:"source"`
	Params   map[string]int64 `json:"params,omitempty"`
	Procs    int              `json:"procs"`
	Strategy string           `json:"strategy"`

	name   string // paper example name, or "random"
	depth  int    // doall depth
	points int64  // doall iteration-space size
	box    int64  // random nests: elements in the largest array's bounding box
}

func (r *request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // strings, ints and a map of ints always marshal
	}
	return b
}

func (r *request) String() string {
	return fmt.Sprintf("%s depth=%d points=%d P=%d %s", r.name, r.depth, r.points, r.Procs, r.Strategy)
}

// paperExample is one of the paper's worked nests. fixed is the size of
// its doall space when the bounds are literal; otherwise the space is
// N^depth.
type paperExample struct {
	name  string
	src   string
	depth int
	fixed int64
}

var paperExamples = []paperExample{
	{"example2", `
doall (i, 101, 200)
  doall (j, 1, 100)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall
`, 2, 10000},
	{"example3", `
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall
`, 2, 0},
	{"example6", `
doall (i, 0, 99)
  doall (j, 0, 99)
    A[i,j] = B[i+j,j] + B[i+j+1,j+2]
  enddoall
enddoall
`, 2, 10000},
	{"example8", `
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]
    enddoall
  enddoall
enddoall
`, 3, 0},
	{"example9", `
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3]
  enddoall
enddoall
`, 2, 0},
	{"example10", `
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
            + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]
  enddoall
enddoall
`, 2, 0},
	{"matmulsync", `
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      l$C[i,j] = C[i,j] + A[i,k] * B[k,j]
    enddoall
  enddoall
enddoall
`, 3, 0},
	{"example1ref", `
doall (i1, 1, N)
  doall (i2, 1, N)
    doall (i3, 1, N)
      A[i3+2, 5, i2-1, 4] = B[i1, i2, i3]
    enddoall
  enddoall
enddoall
`, 3, 0},
	{"example7ref", `
doall (i, 1, N)
  doall (j, 1, N)
    B[i,j] = A[i, 2*i, i+j]
  enddoall
enddoall
`, 2, 0},
}

// paperRequest binds example e at the smallest listed N whose space holds
// at least minPoints points, stepping up a random number of sizes.
func paperRequest(rnd *rand.Rand, e paperExample, minPoints int64, sizes []int64) request {
	r := request{Source: e.src, name: e.name, depth: e.depth, points: e.fixed}
	if e.fixed > 0 {
		return r
	}
	first := len(sizes) - 1
	for i, n := range sizes {
		if pow(n, e.depth) >= minPoints {
			first = i
			break
		}
	}
	n := sizes[first+rnd.Intn(len(sizes)-first)]
	r.Params = map[string]int64{"N": n}
	r.points = pow(n, e.depth)
	return r
}

// nestShape bounds the random nests.
type nestShape struct {
	maxDepth    int
	maxCoef     int64 // |subscript coefficient| ≤ maxCoef
	maxOffset   int64 // |subscript offset| ≤ maxOffset
	maxArrays   int
	maxRefsPer  int
	rankByDepth bool // no array has more dimensions than the loop
}

var servingShape = nestShape{maxDepth: 3, maxCoef: 2, maxOffset: 3, maxArrays: 3, maxRefsPer: 3}

// certifyShape keeps every array's bounding box within a small multiple
// of the nest's points. A 1-D loop sweeping both dimensions of a 2-D
// array touches a box quadratic in its points, and the message-passing
// executor keeps a dense copy of that box per processor: one such nest
// allocated up to 70 MB per certification, and as one seed in four drew
// one, peak memory and p99 depended on the seed.
var certifyShape = nestShape{maxDepth: 3, maxCoef: 2, maxOffset: 3, maxArrays: 3, maxRefsPer: 3, rankByDepth: true}

// randomRequest emits a random affine doall nest whose iteration space
// holds between minPoints and growth·minPoints points. shape draws its
// structure (arrays, their dimensions, references per array) and nums
// its numbers (extents, lower bounds, coefficients, offsets). The
// right-hand side lists its references in sorted order, so two nests
// with different source text always have different canonical plan keys.
func randomRequest(shape, nums *rand.Rand, sh nestShape, depth int, minPoints, growth int64) request {
	rnd := nums
	target := minPoints * (1 + rnd.Int63n(growth))
	ext := extentsFor(rnd, depth, minPoints, target)
	vars := make([]string, depth)
	var b strings.Builder
	var points int64 = 1
	for k := 0; k < depth; k++ {
		vars[k] = fmt.Sprintf("i%d", k)
		lo := int64(rnd.Intn(3))
		fmt.Fprintf(&b, "doall (%s, %d, %d) ", vars[k], lo, lo+ext[k]-1)
		points *= ext[k]
	}
	arrays := 1 + shape.Intn(sh.maxArrays)
	var lhs string
	var terms []string
	var maxBox int64
	for ai := 0; ai < arrays; ai++ {
		name := string(rune('A' + ai))
		dim := 1 + shape.Intn(2)
		// A rank cut by rankByDepth drops subscripts but not their
		// draws, so every other nest of the list stays as it was.
		rank := dim
		if sh.rankByDepth {
			rank = min(dim, depth)
		}
		refs := 1 + shape.Intn(sh.maxRefsPer)
		coefs := make([][]int64, dim)
		for d := range coefs {
			coefs[d] = make([]int64, depth)
			for k := range coefs[d] {
				coefs[d][k] = rnd.Int63n(2*sh.maxCoef+1) - sh.maxCoef
			}
		}
		coefs = coefs[:rank]
		offs := make([][]int64, rank) // per dimension, the refs' offsets
		for ri := 0; ri < refs; ri++ {
			var subs []string
			for d := 0; d < dim; d++ {
				off := rnd.Int63n(2*sh.maxOffset+1) - sh.maxOffset
				if d < rank {
					offs[d] = append(offs[d], off)
					subs = append(subs, affineText(coefs[d], vars, off))
				}
			}
			ref := name + "[" + strings.Join(subs, ", ") + "]"
			if lhs == "" {
				lhs = ref
			} else {
				terms = append(terms, ref)
			}
		}
		box := int64(1)
		for d := range coefs {
			span := slices.Max(offs[d]) - slices.Min(offs[d]) + 1
			for k, c := range coefs[d] {
				span += max(c, -c) * (ext[k] - 1)
			}
			box *= span
		}
		maxBox = max(maxBox, box)
	}
	sort.Strings(terms)
	b.WriteString(lhs + " = ")
	if len(terms) == 0 {
		b.WriteString("0")
	} else {
		b.WriteString(strings.Join(terms, " + "))
	}
	b.WriteString(strings.Repeat(" enddoall", depth))
	return request{Source: b.String(), name: "random", depth: depth, points: points, box: maxBox}
}

// extentsFor picks depth loop extents whose product is at least
// minPoints and near target.
func extentsFor(rnd *rand.Rand, depth int, minPoints, target int64) []int64 {
	ext := make([]int64, depth)
	rest := target
	for k := 0; k < depth; k++ {
		base := iroot(rest, depth-k)
		lo, hi := max(2, base*2/3), max(2, base*3/2)
		ext[k] = lo + rnd.Int63n(hi-lo+1)
		rest = max(1, rest/ext[k])
	}
	for product(ext) < minPoints {
		ext[argmin(ext)]++
	}
	return ext
}

// affineText renders Σ coef[k]·vars[k] + off in the loop grammar.
func affineText(coefs []int64, vars []string, off int64) string {
	var parts []string
	for k, c := range coefs {
		switch c {
		case 0:
		case 1:
			parts = append(parts, vars[k])
		case -1:
			parts = append(parts, "-"+vars[k])
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, vars[k]))
		}
	}
	if off != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprint(off))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
}

// ---- workload lists ----

// Each list interleaves a paper-example part and a random part. Fixed
// generators (seeded from paperSeed) choose everything but the random
// nests' numbers: which paper nests are asked and where, and the shape,
// strategy and processor count of every random nest. The seed draws the
// random nests' extents, lower bounds, coefficients and offsets. Every
// seed thus replays the same costly paper nests and the same mix, which
// keeps a run's figures steady from seed to seed.
const paperSeed = 1993

var servingProcs = []int{16, 64, 256}

// paperSizes are the N bindings the served workloads use, by depth:
// 8..20 for 3-D examples and 24..96 for 2-D ones.
func paperSizes(depth int) []int64 {
	lo, hi := int64(24), int64(96)
	if depth == 3 {
		lo, hi = 8, 20
	}
	var out []int64
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// nestFunc draws a nest for procs processors of the given depth (0 =
// any).
type nestFunc func(procs, depth int) request

// paperNests draws paper examples from rnd, bound so that their space
// holds at least 4·procs points.
func paperNests(rnd *rand.Rand) nestFunc {
	return func(procs, depth int) request {
		var pool []paperExample
		for _, e := range paperExamples {
			if depth == 0 || e.depth == depth {
				pool = append(pool, e)
			}
		}
		e := pool[rnd.Intn(len(pool))]
		return paperRequest(rnd, e, 4*int64(procs), paperSizes(e.depth))
	}
}

// randomNests draws random nests bounded by sh whose space holds 4·procs
// to 16·procs points: depth and structure from shape, numbers from nums.
func randomNests(sh nestShape, shape, nums *rand.Rand) nestFunc {
	return func(procs, depth int) request {
		if depth == 0 {
			depth = 1 + shape.Intn(sh.maxDepth)
		}
		return randomRequest(shape, nums, sh, depth, 4*int64(procs), 4)
	}
}

// distinct accumulates requests with distinct bodies; two distinct
// bodies from these generators never share a canonical plan key.
type distinct struct {
	seen map[string]bool
	out  []request
}

func (d *distinct) add(r request) bool {
	if d.seen == nil {
		d.seen = map[string]bool{}
	}
	id := string(r.body())
	if d.seen[id] {
		return false
	}
	d.seen[id] = true
	d.out = append(d.out, r)
	return true
}

// servedStrategies are the strategies hit_repeat and cold_plan request.
var servedStrategies = []string{"auto", "rect", "lowerbound", "oblivious", "skewed"}

// draw adds requests from next until d holds n.
func (d *distinct) draw(n int, next func() request) {
	for len(d.out) < n {
		d.add(next())
	}
}

// servedRequest draws a strategy and processor count from rnd, then a
// nest. 3-D nests are never requested as skewed here: their fill alone
// takes seconds, and cold_plan prices that search.
func servedRequest(rnd *rand.Rand, nest nestFunc, minDepth int) request {
	procs := servingProcs[rnd.Intn(len(servingProcs))]
	strategy := servedStrategies[rnd.Intn(len(servedStrategies))]
	depth := 0
	if strategy == "skewed" {
		depth = minDepth + rnd.Intn(3-minDepth)
	}
	r := nest(procs, depth)
	r.Procs, r.Strategy = procs, strategy
	return r
}

// streams returns the fixed paper stream, the fixed stream that shapes
// random nests, and the seeded stream that draws their numbers.
func streams(seed int64) (paper, shape, nums *rand.Rand) {
	return rand.New(rand.NewSource(paperSeed)), rand.New(rand.NewSource(paperSeed + 1)),
		rand.New(rand.NewSource(seed))
}

// hitKeys returns the hit_repeat key set: n distinct requests, half paper
// examples and half random nests, across the serving processor counts
// and five strategies. Keys alternate paper, random, paper, ...
func hitKeys(seed int64, n int) []request {
	var paper, random distinct
	prnd, srnd, rnd := streams(seed)
	paper.draw(n/2, func() request { return servedRequest(prnd, paperNests(prnd), 2) })
	random.draw(n-n/2, func() request { return servedRequest(srnd, randomNests(servingShape, srnd, rnd), 1) })
	out := make([]request, 0, n)
	for i := range random.out {
		if i < len(paper.out) {
			out = append(out, paper.out[i])
		}
		out = append(out, random.out[i])
	}
	return out
}

// zipfSequence draws n indices into hitKeys' list with Zipf popularity
// (s = 1.1): a few nests dominate, as they do for a compiler rebuilding
// the same translation units. Popularity ranks alternate paper and
// random keys; the paper ranking is fixed and the random one seeded.
func zipfSequence(seed int64, keys, n int) []int {
	paperRank := rand.New(rand.NewSource(paperSeed)).Perm(keys / 2)
	rnd := rand.New(rand.NewSource(seed ^ 0x5a5a))
	randomRank := rnd.Perm(keys - keys/2)
	rank := make([]int, 0, keys)
	for i := range randomRank {
		if i < len(paperRank) {
			rank = append(rank, 2*paperRank[i])
		}
		rank = append(rank, 2*randomRank[i]+1)
	}
	z := rand.NewZipf(rnd, 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = rank[z.Uint64()]
	}
	return out
}

// coldBlock is the strategy mix of every 50 consecutive cold_plan
// requests: mostly auto and rect, fewer lowerbound and oblivious, and 6%
// skewed, one each of depth 1, 2 and 3.
var coldBlock = []struct {
	strategy string
	depth    int // 0 = any
	n        int
}{
	{"auto", 0, 19}, {"rect", 0, 16}, {"lowerbound", 0, 6}, {"oblivious", 0, 6},
	{"skewed", 1, 1}, {"skewed", 2, 1}, {"skewed", 3, 1},
}

// coldSkewVolume caps N³/P for the 3-D paper examples requested as
// skewed in cold_plan. The search's cost grows with the per-processor
// volume; at this cap the slowest request takes about 0.4 seconds, while
// at matmul N=20, P=16 (volume 500) it takes about 20 seconds, longer
// than a whole run.
const coldSkewVolume = 64

// paperSkew3 lists the 3-D paper examples at every (N, P) with
// 4·P ≤ N³ and N³/P ≤ coldSkewVolume, in a fixed shuffled order.
func paperSkew3() []request {
	var out []request
	for _, e := range paperExamples {
		if e.depth != 3 {
			continue
		}
		for _, p := range servingProcs {
			for n := int64(2); pow(n, 3) <= coldSkewVolume*int64(p); n++ {
				if pow(n, 3) < 4*int64(p) {
					continue
				}
				out = append(out, request{Source: e.src, Params: map[string]int64{"N": n}, Procs: p,
					Strategy: "skewed", name: e.name, depth: 3, points: pow(n, 3)})
			}
		}
	}
	rnd := rand.New(rand.NewSource(paperSeed))
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldList returns n requests with pairwise-distinct canonical keys, in
// replay order: blocks of coldBlock's mix in a fixed shuffled order.
// Three slots in five, at fixed places, hold paper examples from the
// fixed stream, so that the median request is a paper nest's. The 3-D
// skewed slot takes the next paperSkew3 entry, then random 3-D nests
// from the fixed stream: the skewed searches that dominate the run's CPU
// are the same for every seed. The other slots hold random nests.
func coldList(seed int64, n int) []request {
	prnd, srnd, rnd := streams(seed)
	papers, randoms := paperNests(prnd), randomNests(servingShape, srnd, rnd)
	skew3 := paperSkew3()
	var d distinct
	for block := 0; len(d.out) < n; block++ {
		var slots []request
		for _, c := range coldBlock {
			for k := 0; k < c.n; k++ {
				slots = append(slots, request{Strategy: c.strategy, depth: c.depth})
			}
		}
		prnd.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, s := range slots {
			skew3Slot := s.Strategy == "skewed" && s.depth == 3
			paper := prnd.Intn(5) < 3 && s.depth != 1 && !skew3Slot
			switch {
			case skew3Slot && len(skew3) > 0:
				d.add(skew3[0])
				skew3 = skew3[1:]
			case skew3Slot:
				for !d.add(coldRequest(prnd, randomNests(servingShape, prnd, prnd), s)) {
				}
			case paper:
				// Once a slot's paper combinations run short, the fixed
				// stream supplies random nests instead.
				nest := papers
				for try := 0; !d.add(coldRequest(prnd, nest, s)); try++ {
					if try == 20 {
						nest = randomNests(servingShape, prnd, prnd)
					}
				}
			default:
				for !d.add(coldRequest(srnd, randoms, s)) {
				}
			}
		}
	}
	return d.out[:n]
}

func coldRequest(rnd *rand.Rand, nest nestFunc, slot request) request {
	procs := servingProcs[rnd.Intn(len(servingProcs))]
	r := nest(procs, slot.depth)
	r.Procs, r.Strategy = procs, slot.Strategy
	return r
}

// certifyProcs are the certify workload's processor counts.
var certifyProcs = []int{4, 8, 16}

// certifyList returns the certify workload's plan requests. The paper
// part is every paper example bound by N, as auto and rect and, in 2-D,
// as skewed, at N = 24 (2-D) or 8 (3-D) and at P = 4 and P = 16, in a
// fixed shuffled order. Example 2 and Example 6 are left out: their
// literal 100×100 bounds give 20 times the points of the others, and
// their 0.1 to 0.8 second certifications made a run's peak memory and
// p99 depend on which two ops happened to overlap. Every fourth request
// is instead a random nest of 4·P to 16·P points, as auto, rect or (2-D)
// skewed, whose arrays have no more dimensions than its loop
// (certifyShape).
func certifyList(seed int64, n int) []request {
	var paper, random distinct
	for _, e := range paperExamples {
		if e.fixed > 0 {
			continue
		}
		strategies := []string{"auto", "rect"}
		if e.depth == 2 {
			strategies = append(strategies, "skewed")
		}
		for _, s := range strategies {
			for _, procs := range []int{4, 16} {
				size := map[int]int64{2: 24, 3: 8}[e.depth]
				paper.add(request{Source: e.src, Params: map[string]int64{"N": size}, Procs: procs, Strategy: s,
					name: e.name, depth: e.depth, points: pow(size, e.depth)})
			}
		}
	}
	prnd, srnd, rnd := streams(seed)
	prnd.Shuffle(len(paper.out), func(i, j int) { paper.out[i], paper.out[j] = paper.out[j], paper.out[i] })
	randoms := randomNests(certifyShape, srnd, rnd)
	random.draw(n-len(paper.out), func() request {
		procs := certifyProcs[srnd.Intn(len(certifyProcs))]
		strategy := []string{"auto", "rect", "skewed"}[srnd.Intn(3)]
		depth := 0
		if strategy == "skewed" {
			depth = 2
		}
		r := randoms(procs, depth)
		r.Procs, r.Strategy = procs, strategy
		return r
	})
	out := make([]request, 0, n)
	for i := 0; len(out) < n; i++ {
		if (i%4 == 3 || len(paper.out) == 0) && len(random.out) > 0 {
			out, random.out = append(out, random.out[0]), random.out[1:]
		} else {
			out, paper.out = append(out, paper.out[0]), paper.out[1:]
		}
	}
	return out
}

// ---- small integer helpers ----

func pow(b int64, e int) int64 {
	out := int64(1)
	for ; e > 0; e-- {
		out *= b
	}
	return out
}

// iroot is the integer k-th root of n, rounded up.
func iroot(n int64, k int) int64 {
	r := int64(1)
	for pow(r, k) < n {
		r++
	}
	return r
}

func product(v []int64) int64 {
	p := int64(1)
	for _, x := range v {
		p *= x
	}
	return p
}

func argmin(v []int64) int {
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}
