package dataio

import (
	"bytes"
	"errors"
	"testing"

	"chassis/internal/cascade"
	"chassis/internal/timeline"
)

// fuzzDatasetSeed serializes a tiny valid dataset so the fuzzer starts from
// well-formed wire bytes instead of having to invent JSON from scratch.
func fuzzDatasetSeed(tb interface{ Fatal(...any) }) []byte {
	seq := &timeline.Sequence{M: 3, Horizon: 10}
	seq.Activities = []timeline.Activity{
		{ID: 0, User: 0, Time: 1, Kind: timeline.Post, Polarity: 0.5, Parent: timeline.NoParent},
		{ID: 1, User: 1, Time: 2.5, Kind: timeline.Retweet, Polarity: -0.25, Parent: 0, Topic: 1},
		{ID: 2, User: 2, Time: 2.5, Kind: timeline.Like, Parent: 1},
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, &cascade.Dataset{Name: "fuzz-seed", Seq: seq,
		Influence:  [][]float64{{0, 1, 0}, {0, 0, 0}, {1, 0, 0}},
		Conformity: []float64{0.1, 0.2, 0.3},
	}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadDataset hammers the JSON decoding front door with arbitrary
// bytes. The contract under fuzz:
//   - Neither ReadDataset nor ReadDatasetRepair panics on any input.
//   - A dataset ReadDataset accepts passes timeline Check (the validated
//     decode is the fit front door) and survives a Write/Read round trip.
//   - A dataset ReadDatasetRepair accepts passes Check too — repair must
//     hand core a clean sequence or fail, never a dirty success.
//   - Validation rejections carry a *timeline.ValidationError so CLI error
//     handling can keep classifying failures.
func FuzzReadDataset(f *testing.F) {
	f.Add(fuzzDatasetSeed(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","m":2,"horizon":5,"activities":[]}`))
	f.Add([]byte(`{"m":1,"horizon":1,"activities":[{"id":0,"user":0,"time":0.5,"kind":"post"}]}`))
	f.Add([]byte(`{"m":1,"horizon":1,"activities":[{"id":0,"user":0,"time":0.5,"kind":"frown"}]}`))
	f.Add([]byte(`{"m":2,"horizon":4,"activities":[{"id":0,"user":1,"time":3,"kind":"post"},{"id":1,"user":0,"time":1,"kind":"reply","parent":7}]}`))
	f.Add([]byte(`{"m":1,"horizon":1e308,"activities":[{"id":0,"user":0,"time":1e307,"kind":"angry","polarity":-1}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"m":1,"horizon":1,"activities":[{"id":0,"user":0,"time"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			// Error classification: a decode that fails validation (rather
			// than JSON syntax) must expose the typed error.
			var verr *timeline.ValidationError
			if errors.As(err, &verr) && verr.Field == "" {
				t.Fatalf("ValidationError without a field: %v", err)
			}
		} else {
			if cerr := d.Seq.Check(); cerr != nil {
				t.Fatalf("ReadDataset accepted a sequence that fails Check: %v", cerr)
			}
			// Round trip: anything we accept we must be able to re-emit and
			// re-read. NaN/Inf can't appear here — Check already rejected
			// non-finite times and polarities.
			var buf bytes.Buffer
			if werr := WriteDataset(&buf, d); werr != nil {
				t.Fatalf("re-encoding an accepted dataset failed: %v", werr)
			}
			d2, rerr := ReadDataset(&buf)
			if rerr != nil {
				t.Fatalf("round trip of an accepted dataset failed: %v", rerr)
			}
			if d2.Seq.Len() != d.Seq.Len() || d2.Seq.M != d.Seq.M {
				t.Fatalf("round trip changed shape: %d/%d events, %d/%d users",
					d.Seq.Len(), d2.Seq.Len(), d.Seq.M, d2.Seq.M)
			}
		}

		rd, _, rerr := ReadDatasetRepair(bytes.NewReader(data))
		if rerr == nil {
			if cerr := rd.Seq.Check(); cerr != nil {
				t.Fatalf("ReadDatasetRepair returned a dirty success: %v", cerr)
			}
		}
		// A dataset the strict reader accepts must never become unrepairable.
		if err == nil && rerr != nil {
			t.Fatalf("strict read accepted but repair read failed: %v", rerr)
		}
	})
}
