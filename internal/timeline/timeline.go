// Package timeline defines the event model shared by every CHASSIS
// component: timestamped social activities, per-user sequences, and a
// binned counting-process view of one user's activities.
//
// An Activity is one event of a multi-dimensional point process: dimension i
// is the user U_i, and the activity carries an occurrence time, a kind
// (post, retweet, ...), optional text, and an opinion polarity. Ground-truth
// datasets additionally record the triggering parent, which inference code
// must treat as hidden.
package timeline

import (
	"fmt"
	"math"
	"sort"
)

// UserID identifies a dimension of the multi-dimensional point process.
// Users are numbered densely in [0, M).
type UserID int

// ActivityID identifies an activity within a Sequence. IDs are dense indices
// into Sequence.Activities, so Activities[id].ID == id always holds after
// Normalize.
type ActivityID int

// NoParent marks an activity as an immigrant (no triggering parent) or as
// having an unknown parent, depending on context.
const NoParent ActivityID = -1

// Kind enumerates the social-activity types observed in the datasets.
type Kind uint8

// Activity kinds. Post starts a cascade; the others are responses.
const (
	Post Kind = iota
	Retweet
	Comment
	Reply
	Like
	Angry
	numKinds
)

var kindNames = [...]string{"post", "retweet", "comment", "reply", "like", "angry"}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind converts a name produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("timeline: unknown activity kind %q", s)
}

// IsResponse reports whether the kind is an offspring-type activity
// (anything but an original post).
func (k Kind) IsResponse() bool { return k != Post }

// Explicit reports whether the kind carries an explicit stance: a Like is an
// explicit positive reaction and Angry an explicit negative one, so no text
// analysis is needed for them.
func (k Kind) Explicit() bool { return k == Like || k == Angry }

// Activity is one event a_{ik} = (t_{ik}, C_{ik}) of the process.
type Activity struct {
	ID       ActivityID
	User     UserID
	Time     float64
	Kind     Kind
	Text     string
	Polarity float64 // opinion polarity in [-1, 1]

	// Parent is the ground-truth triggering activity (NoParent for
	// immigrants). Inference treats it as latent; it is only read by
	// evaluation code.
	Parent ActivityID

	// Topic tags the discussion context; conformity is context-sensitive,
	// so stance vectors are kept per topic.
	Topic int
}

// IsImmigrant reports whether the activity has no ground-truth parent.
func (a Activity) IsImmigrant() bool { return a.Parent == NoParent }

// Sequence is a chronologically ordered collection of activities over the
// observation window [0, Horizon], spanning M user dimensions.
type Sequence struct {
	M          int
	Horizon    float64
	Activities []Activity
}

// Normalize sorts activities chronologically (stably, so simultaneous events
// keep their relative order), reassigns dense IDs, and remaps parent
// references accordingly.
func (s *Sequence) Normalize() {
	old := make([]ActivityID, len(s.Activities))
	for i := range s.Activities {
		old[i] = s.Activities[i].ID
	}
	sort.SliceStable(s.Activities, func(i, j int) bool {
		return s.Activities[i].Time < s.Activities[j].Time
	})
	// Map old ID -> new index.
	remap := make(map[ActivityID]ActivityID, len(s.Activities))
	for i := range s.Activities {
		remap[s.Activities[i].ID] = ActivityID(i)
	}
	for i := range s.Activities {
		a := &s.Activities[i]
		a.ID = ActivityID(i)
		if a.Parent != NoParent {
			np, ok := remap[a.Parent]
			if !ok {
				a.Parent = NoParent
			} else {
				a.Parent = np
			}
		}
	}
}

// Len returns the number of activities.
func (s *Sequence) Len() int { return len(s.Activities) }

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	out := &Sequence{M: s.M, Horizon: s.Horizon}
	out.Activities = make([]Activity, len(s.Activities))
	copy(out.Activities, s.Activities)
	return out
}

// ByUser returns, for each user, the indices of that user's activities in
// chronological order.
func (s *Sequence) ByUser() [][]int {
	out := make([][]int, s.M)
	for i, a := range s.Activities {
		out[a.User] = append(out[a.User], i)
	}
	return out
}

// CountByUser returns N_i(Horizon) for every user.
func (s *Sequence) CountByUser() []int {
	out := make([]int, s.M)
	for _, a := range s.Activities {
		out[a.User]++
	}
	return out
}

// Split cuts the sequence at the activity whose rank is frac of the total
// (by count, matching the paper's "first 30%/50%/... samples for training"),
// returning train and test sequences. The train horizon is the time of the
// last training activity; the test sequence keeps the original horizon and
// re-bases nothing: times are absolute, so held-out likelihoods can include
// the training history if desired. Parents that cross the boundary are
// dropped to NoParent in the test half.
func (s *Sequence) Split(frac float64) (train, test *Sequence, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("timeline: split fraction %g outside (0,1)", frac)
	}
	n := len(s.Activities)
	cut := int(math.Round(frac * float64(n)))
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	train = &Sequence{M: s.M, Horizon: s.Activities[cut-1].Time}
	train.Activities = append([]Activity(nil), s.Activities[:cut]...)
	test = &Sequence{M: s.M, Horizon: s.Horizon}
	test.Activities = make([]Activity, n-cut)
	copy(test.Activities, s.Activities[cut:])
	for i := range test.Activities {
		a := &test.Activities[i]
		a.ID = ActivityID(i)
		if a.Parent != NoParent {
			if int(a.Parent) < cut {
				a.Parent = NoParent
			} else {
				a.Parent -= ActivityID(cut)
			}
		}
	}
	if train.Horizon <= 0 {
		train.Horizon = math.Nextafter(0, 1)
	}
	return train, test, nil
}

// Window returns the sub-sequence of activities with Time in [from, to),
// preserving absolute times. Parent links to activities outside the window
// are cut.
func (s *Sequence) Window(from, to float64) *Sequence {
	lo := sort.Search(len(s.Activities), func(i int) bool { return s.Activities[i].Time >= from })
	hi := sort.Search(len(s.Activities), func(i int) bool { return s.Activities[i].Time >= to })
	out := &Sequence{M: s.M, Horizon: to}
	out.Activities = make([]Activity, hi-lo)
	copy(out.Activities, s.Activities[lo:hi])
	for i := range out.Activities {
		a := &out.Activities[i]
		a.ID = ActivityID(i)
		if a.Parent != NoParent {
			p := int(a.Parent)
			if p < lo || p >= hi {
				a.Parent = NoParent
			} else {
				a.Parent -= ActivityID(lo)
			}
		}
	}
	return out
}

// CountingProcess bins the whole sequence into nbins equal slots over
// [0, Horizon] for one user, returning N_i[k] = number of activities of user
// u in slot k. This is the discrete counting-process view of Eq. 7.5.
func (s *Sequence) CountingProcess(u UserID, nbins int) []float64 {
	out := make([]float64, nbins)
	if nbins <= 0 || s.Horizon <= 0 {
		return out
	}
	w := s.Horizon / float64(nbins)
	for _, a := range s.Activities {
		if a.User != u {
			continue
		}
		k := int(a.Time / w)
		if k >= nbins {
			k = nbins - 1
		}
		out[k]++
	}
	return out
}

// GroundTruthParents returns the parent of each activity as recorded in the
// dataset (evaluation only).
func (s *Sequence) GroundTruthParents() []ActivityID {
	out := make([]ActivityID, len(s.Activities))
	for i, a := range s.Activities {
		out[i] = a.Parent
	}
	return out
}

// StripParents returns a clone with all parent links removed, simulating the
// Twitter-API view where connectivity information is unavailable.
func (s *Sequence) StripParents() *Sequence {
	out := s.Clone()
	for i := range out.Activities {
		out.Activities[i].Parent = NoParent
	}
	return out
}

// Merge concatenates sequences over the same user universe into one
// normalized sequence. Horizons are max'd; parent links are preserved within
// each input.
func Merge(m int, seqs ...*Sequence) *Sequence {
	out := &Sequence{M: m}
	offset := 0
	for _, q := range seqs {
		if q.Horizon > out.Horizon {
			out.Horizon = q.Horizon
		}
		for _, a := range q.Activities {
			a.ID += ActivityID(offset)
			if a.Parent != NoParent {
				a.Parent += ActivityID(offset)
			}
			out.Activities = append(out.Activities, a)
		}
		offset += len(q.Activities)
	}
	out.Normalize()
	return out
}
