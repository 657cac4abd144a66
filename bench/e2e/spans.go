package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder was created; Parent is the index of the
// enclosing span (-1 for a unit's root); spans of one unit share Unit.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover; filled by finish
}

// spans records spans in memory; a nil *spans records nothing, which is how
// the untraced run pays no tracing cost. The lock is there for the one
// workload that opens spans from two goroutines (dist_loopback's worker).
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
	unit int // id of the unit in progress
	root int // index of that unit's root span, -1 between units
}

func newSpans() *spans { return &spans{t0: time.Now(), list: make([]span, 0, 1024), root: -1} }

// beginUnit opens the root span of a new unit; spans begun until endUnit
// are its children.
func (s *spans) beginUnit() {
	if s == nil {
		return
	}
	s.unit++
	s.root = -1
	s.root = s.begin("unit")
}

func (s *spans) endUnit() {
	if s == nil {
		return
	}
	s.end(s.root)
	s.root = -1
}

// begin opens a span under the current unit's root and returns its index.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list = append(s.list, span{Name: name, Start: now, Parent: s.root, Unit: s.unit})
	id := len(s.list) - 1
	s.mu.Unlock()
	return id
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id].End = now
	s.mu.Unlock()
}

// finish fills every span's self time: its duration minus the time its
// direct children cover (children of one parent never overlap here except
// the dist worker, whose span has no children).
func (s *spans) finish() {
	for i := range s.list {
		s.list[i].Self = s.list[i].End - s.list[i].Start
	}
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			s.list[sp.Parent].Self -= sp.End - sp.Start
		}
	}
}

func (s *spans) write(path string) error {
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
