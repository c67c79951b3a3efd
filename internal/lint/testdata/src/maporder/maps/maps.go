// Fixture: maporder in a deterministic package (type-checked as
// internal/netsim). Map ranges whose bodies have order-sensitive side
// effects are reported unless the keys pass through a sort; pure
// accumulation and the collect-sort-range idiom stay silent.
package netsim

import "sort"

type engine struct{}

func (e *engine) Schedule(d int, f func())       {}
func (e *engine) SendFrom(src int, pkt any)      {}
func (e *engine) SendTrain(pkt any, n, last int) {}

type sink struct{}

func (s *sink) Write(p []byte) (int, error) { return len(p), nil }

func channelSend(m map[int]int, ch chan int) {
	for k := range m { // want `order-sensitive side effect \(channel send\)`
		ch <- k
	}
}

func scheduleInBody(m map[int]*engine, e *engine) {
	for k := range m { // want `order-sensitive side effect \(call to Schedule\)`
		e.Schedule(k, nil)
	}
}

func sendFromInBody(m map[int]int, e *engine) {
	for k, v := range m { // want `order-sensitive side effect \(call to SendFrom\)`
		e.SendFrom(k, v)
	}
}

func sendTrainInBody(m map[int]int, e *engine) {
	for k, v := range m { // want `order-sensitive side effect \(call to SendTrain\)`
		e.SendTrain(k, v, v)
	}
}

func writeInBody(m map[string][]byte, s *sink) {
	for _, v := range m { // want `order-sensitive side effect \(call to Write\)`
		_, _ = s.Write(v)
	}
}

func escapingAppendUnsorted(m map[int]int) []int {
	var out []int
	for k := range m { // want `appends to "out", which escapes the loop in map order`
		out = append(out, k)
	}
	return out
}

// The canonical idiom: collect the keys, sort, then range the slice.
func sortedKeys(m map[int]int, e *engine) {
	keys := make([]int, 0, len(m))
	for k := range m { // sorted below: not reported
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		e.Schedule(k, nil)
	}
}

// sort.Slice with a comparator also clears the escape.
func sortedStructs(m map[int]string) []string {
	var vals []string
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// Commutative accumulation is order-insensitive and never reported.
func accumulate(m map[int]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// Building another map commutes too.
func invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// A slice declared inside the loop body never escapes in map order.
func localAppend(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var doubled []int
		doubled = append(doubled, vs...)
		n += len(doubled)
	}
	return n
}

func suppressed(m map[int]int, ch chan int) {
	//tcpz:allow maporder — the map holds at most one entry by construction
	for k := range m {
		ch <- k
	}
}

// Ranging a slice is always fine, side effects or not.
func sliceRange(xs []int, ch chan int) {
	for _, x := range xs {
		ch <- x
	}
}
