// Package lru is the recency map the serving tier keeps its live state in:
// the history-state cache (internal/serve, keyed by prefix digest) and the
// live-cascade store (internal/ingest, keyed by cascade_id). A Map is not
// safe for concurrent use; each owner guards it with its own mutex.
package lru

import "container/list"

// Map maps keys to values and remembers the order they were last used in.
// Past its limit, Put evicts the least recently used entries.
type Map[K comparable, V any] struct {
	limit   int
	evicted func(K, V)
	byKey   map[K]*list.Element
	order   *list.List // front = most recently used; values are *entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty map that holds at most limit entries (limit <= 0:
// unbounded). evicted, when non-nil, is called with each entry Put evicts.
func New[K comparable, V any](limit int, evicted func(K, V)) *Map[K, V] {
	return &Map[K, V]{limit: limit, evicted: evicted, byKey: map[K]*list.Element{}, order: list.New()}
}

// Get returns key's value and marks the entry most recently used.
func (m *Map[K, V]) Get(key K) (V, bool) {
	el, ok := m.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts key (or refreshes its value) as the most recently used entry,
// then evicts least recently used entries until the limit holds.
func (m *Map[K, V]) Put(key K, val V) {
	if el, ok := m.byKey[key]; ok {
		el.Value.(*entry[K, V]).val = val
		m.order.MoveToFront(el)
		return
	}
	m.byKey[key] = m.order.PushFront(&entry[K, V]{key: key, val: val})
	for m.limit > 0 && m.order.Len() > m.limit {
		e := m.order.Remove(m.order.Back()).(*entry[K, V])
		delete(m.byKey, e.key)
		if m.evicted != nil {
			m.evicted(e.key, e.val)
		}
	}
}

// Len reports the entry count.
func (m *Map[K, V]) Len() int { return m.order.Len() }

// Values returns every value, most recently used first.
func (m *Map[K, V]) Values() []V {
	out := make([]V, 0, m.order.Len())
	for el := m.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}

// Clear removes every entry without calling evicted.
func (m *Map[K, V]) Clear() {
	m.byKey = map[K]*list.Element{}
	m.order.Init()
}
