package lru

import (
	"reflect"
	"testing"
)

func TestMapRecencyAndEviction(t *testing.T) {
	var gone []string
	m := New[string, int](3, func(k string, v int) { gone = append(gone, k) })
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("c", 3)
	if _, ok := m.Get("a"); !ok { // a becomes most recent; b is now oldest
		t.Fatal("a missing")
	}
	m.Put("b", 20) // refresh: b becomes most recent, nothing evicted
	if len(gone) != 0 {
		t.Fatalf("refresh evicted %v", gone)
	}
	m.Put("d", 4) // c is the least recently used
	if !reflect.DeepEqual(gone, []string{"c"}) {
		t.Fatalf("evicted %v, want [c]", gone)
	}
	if got := m.Values(); !reflect.DeepEqual(got, []int{4, 20, 1}) {
		t.Fatalf("Values() = %v, want [4 20 1] (most recent first)", got)
	}
	if _, ok := m.Get("c"); ok || m.Len() != 3 {
		t.Fatalf("after eviction: c present=%v, Len=%d", ok, m.Len())
	}
	m.Clear()
	if m.Len() != 0 || len(m.Values()) != 0 || len(gone) != 1 {
		t.Fatalf("Clear left %d entries, evicted %v", m.Len(), gone)
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("a survived Clear")
	}
}

func TestMapUnbounded(t *testing.T) {
	m := New[int, int](-1, func(int, int) { t.Fatal("unbounded map evicted") })
	for i := 0; i < 100; i++ {
		m.Put(i, i)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
}
