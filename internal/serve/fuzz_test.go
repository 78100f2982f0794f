package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"chassis/internal/timeline"
)

// FuzzIngestDecode hammers the streaming front door's body handling with
// arbitrary bytes. The contract under fuzz:
//   - decodeIngestRequest never panics, whatever the bytes.
//   - A decoded request that passes validate and eventSequence hands the
//     store clean activities: chronological, in-range users, finite fields
//     (Check-clean as a sequence), with Repair mode held to the same bar.
//   - Rejections carry typed errors (*serve.Error or
//     *timeline.ValidationError) so the HTTP layer keeps classifying them
//     as 400s instead of 500s.
func FuzzIngestDecode(f *testing.F) {
	f.Add(`{"cascade_id":"c1","events":[{"user":0,"time":1.5,"kind":"post"}]}`)
	f.Add(`{"cascade_id":"c1","events":[{"user":3,"time":2,"kind":"retweet","polarity":-0.5},{"user":1,"time":2}]}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":5},{"user":1,"time":1}],"repair":true}`)
	f.Add(`{"cascade_id":"","events":[{"user":0,"time":1}]}`)
	f.Add(`{"cascade_id":"c","events":[]}`)
	f.Add(`{"cascade_id":"c","events":[{"user":99,"time":1}]}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":-1}]}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":1e308,"polarity":1e308}],"repair":true}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":1,"kind":"frown"}]}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":1}],"timeout_ms":-5}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time":1}],"unknown":true}`)
	f.Add(`{"cascade_id":"c","events":[{"user":0,"time"`)
	f.Add(`[1,2,3]`)
	f.Add(`{}`)

	const m = 8
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeIngestRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		acts, _, err := req.eventSequence(m)
		if err != nil {
			var ae *Error
			var ve *timeline.ValidationError
			if !errors.As(err, &ae) && !errors.As(err, &ve) {
				t.Fatalf("untyped eventSequence error %T: %v", err, err)
			}
			return
		}
		// Accepted activities must be exactly what the store's own per-event
		// validation admits: the Check front door over the batch.
		if len(acts) == 0 {
			t.Fatal("eventSequence accepted a batch but returned no activities")
		}
		horizon := acts[len(acts)-1].Time
		if horizon <= 0 {
			horizon = math.Nextafter(0, 1) // eventSequence's all-t=0 guard
		}
		seq := &timeline.Sequence{M: m, Horizon: horizon, Activities: acts}
		if err := seq.Check(); err != nil {
			t.Fatalf("accepted batch fails Check: %v", err)
		}
	})
}
