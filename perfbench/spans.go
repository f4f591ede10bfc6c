package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans that belong to one packet or one progress window
// share a Group id; Parent links a span to the span that caused it. A
// sampled span stands for Weight calls like it.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Group  uint64  `json:"group,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Weight float64 `json:"weight"`
}

// openSpan is a started span; finish records it.
type openSpan struct {
	id, parent, group uint64
	name              string
	start             int64
	weight            float64
}

// spanLog keeps every finished span in memory until the run ends. A nil
// *spanLog is the untraced mode: every method is a no-op, so workload code
// calls it unconditionally. Spans may finish on the sharded engine's worker
// goroutines, hence the mutex.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) start(name string, parent, group uint64) openSpan {
	return l.startSampled(name, parent, group, 1)
}

// startSampled starts a span that stands for weight calls like it.
func (l *spanLog) startSampled(name string, parent, group uint64, weight float64) openSpan {
	if l == nil {
		return openSpan{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return openSpan{id: id, parent: parent, group: group, name: name, weight: weight, start: int64(time.Since(l.epoch))}
}

func (l *spanLog) finish(o openSpan) {
	if l == nil {
		return
	}
	end := int64(time.Since(l.epoch))
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: o.id, Parent: o.parent, Group: o.group, Name: o.name,
		Start: o.start, End: end, Weight: o.weight})
	l.mu.Unlock()
}

// newGroup issues a fresh group id (one per packet or window).
func (l *spanLog) newGroup() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// selfTimes sums, per layer, the time spans spent outside their children:
// a span's duration minus the union of its children's intervals clipped to
// it, counted Weight times. The layer is the span name up to its first dot
// ("sim.RunUntil" → "sim"). Children that run concurrently (sends on
// several shard workers) are merged as a union, so overlap is not
// subtracted twice.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curStart, curEnd int64
		open := false
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = a, b, true
			case a > curEnd:
				covered += curEnd - curStart
				curStart, curEnd = a, b
			case b > curEnd:
				curEnd = b
			}
		}
		if open {
			covered += curEnd - curStart
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.Weight * float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// write stores the spans as JSON lines at path, creating its directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
