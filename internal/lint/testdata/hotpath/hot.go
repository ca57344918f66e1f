// Package hotdata seeds hotpath-analyzer violations for the golden test.
// Every flagged line carries a // want comment; unflagged lines are the
// negative cases.
package hotdata

import "fmt"

type item struct {
	n int
}

// annotated is a hot-path root: each construct below must be flagged.
//
//txgc:hotpath
func annotated(xs []int) int {
	fmt.Println("boom")             // want `\[hotpath-fmt\] call to fmt\.Println allocates`
	m := map[int]int{}              // want `\[hotpath-alloc\] map literal allocates`
	sl := []int{1, 2}               // want `\[hotpath-alloc\] slice literal allocates`
	buf := make([]byte, 8)          // want `\[hotpath-alloc\] make allocates`
	p := &item{n: 1}                // want `\[hotpath-alloc\] &composite literal allocates`
	s := "a" + string(rune(len(m))) // want `\[hotpath-concat\] string concatenation allocates`
	var sink any
	sink = item{n: 2} // want `\[hotpath-iface\] item → any boxes a non-pointer value on the heap`
	_ = sink
	f := func() int { return xs[0] } // want `\[hotpath-closure\] closure captures "xs"`
	return helper(len(sl)+len(buf)+p.n+len(s)) + f()
}

// helper is NOT annotated but is a static callee of annotated: its
// violations are reported with the root named.
func helper(n int) int {
	h := map[int]int{n: n} // want `\[hotpath-alloc\] map literal allocates \(on the hot path of repro/internal/lint/testdata/hotpath\.annotated\)`
	return len(h)
}

// cold has the same constructs but is unreachable from any annotated
// function — nothing here may be flagged.
func cold() int {
	fmt.Println("fine")
	m := map[int]int{}
	return len(m)
}

// suppressedHot shows an explained suppression: the diagnostic must not
// surface.
//
//txgc:hotpath
func suppressedHot() int {
	//lint:ignore hotpath-alloc golden-test fixture: explained suppressions must silence the finding
	m := map[int]int{}
	return len(m)
}

//txgc:hotpat typo // want `\[annotation\] unknown annotation //txgc:hotpat \(known: hotpath, owner\)`

// constants and pointer-shaped conversions must not be flagged as boxing.
//
//txgc:hotpath
func boxingNegatives(p *item) any {
	var sink any
	sink = 42 // constant: static interface data
	_ = sink
	return p // pointer-shaped: fits the interface word
}

// failurePaths: a fmt call returned as an error is not flagged; any other
// fmt call is.
//
//txgc:hotpath
func failurePaths(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative %d", n)
	}
	s := fmt.Sprintf("%d", n) // want `\[hotpath-fmt\] call to fmt\.Sprintf allocates`
	return len(s) + len(label(n)), nil
}

// label returns a fmt call as a string, not an error: still flagged.
func label(n int) string {
	return fmt.Sprint(n) // want `\[hotpath-fmt\] call to fmt\.Sprint allocates \(on the hot path of repro/internal/lint/testdata/hotpath\.failurePaths\)`
}
