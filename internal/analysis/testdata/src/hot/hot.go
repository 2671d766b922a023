// Package hot exercises the hotalloc analyzer's syntactic rules.
package hot

import (
	"errors"
	"fmt"
	"slices"
)

type engine struct {
	scratch map[uint64]struct{}
	updates []int
}

// insertBatch is on the cycle path.
//
//topk:hot
func (e *engine) insertBatch(ids []uint64) error {
	defer release(e) // want `defer on hot path`
	for _, id := range ids {
		e.scratch[id] = struct{}{} // want `map index on hot path`
	}
	go flush(e)                // want `goroutine spawn on hot path`
	m := make(map[uint64]bool) // want `make\(map\) on hot path`
	_ = m
	ch := make(chan int) // want `make\(chan\) on hot path`
	_ = ch
	if len(ids) == 0 {
		return errors.New("empty batch") // want `errors\.New on hot path always allocates`
	}
	msg := fmt.Sprintf("batch %d", len(ids)) // want `fmt\.Sprintf on hot path always allocates`
	_ = msg
	return nil
}

//topk:hot
func (e *engine) finishCycle(name string, payload []byte) string {
	n := len(e.updates)
	cb := func(a, b int) int { return a - b } // non-capturing: fine
	_ = cb
	counter := func() int { // want `variable-capturing closure on hot path`
		return n
	}
	_ = counter
	// Capturing literals passed directly to slices sorts do not escape.
	slices.SortFunc(e.updates, func(a, b int) int {
		if a < n {
			return -1
		}
		return b - a
	})
	s := string(payload) // want `string<->\[\]byte conversion on hot path`
	b := []byte(name)    // want `string<->\[\]byte conversion on hot path`
	_ = b
	return s + name // want `string concatenation on hot path`
}

//topk:hot
func (e *engine) pooledOK(buf []int) []int {
	// Appending into a caller-provided buffer and slice make are not
	// flagged syntactically: the escape allowlist covers real escapes.
	tmp := make([]int, 0, 8)
	tmp = append(tmp, len(buf))
	return append(buf, tmp...)
}

//topk:hot
func (e *engine) mapOps(id uint64, ids []uint64) int {
	n := 0
	if _, ok := e.scratch[id]; ok { // want `map index on hot path`
		n++
	}
	for k := range e.scratch { // want `range over a map on hot path`
		n += int(k)
	}
	delete(e.scratch, id) // want `delete on a map on hot path`
	clear(e.scratch)      // want `clear on a map on hot path`
	// Slices are the replacement and are not flagged.
	for _, v := range ids {
		n += int(v)
	}
	clear(ids)
	n += int(ids[0])
	//topk:allow mapop membership set pending the tuple table
	if _, ok := e.scratch[id]; ok {
		n++
	}
	return n
}

//topk:hot
func (e *engine) suppressed() error {
	return errors.New("cold start") //topk:allow hotalloc only reachable during recovery
}

// setup is not annotated: everything here is fine.
func (e *engine) setup() error {
	defer release(e)
	e.scratch = make(map[uint64]struct{})
	return fmt.Errorf("setup %d", len(e.updates))
}

func release(e *engine) {}
func flush(e *engine)   {}
