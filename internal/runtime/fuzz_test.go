package runtime

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzRegistrationJSON: arbitrary bytes through the POST /coflows path
// — SpecJSON decode, toSpec, Register — on an 8-port Manual coordinator
// with every agent attached, then one schedule round. Nothing may
// panic; a body whose flow list is empty or names a port outside
// [0, 8) is refused with 400 (a port reaches port-indexed slices, so
// this is the bounds check); and an accepted spec is live exactly once:
// the live count, the ID lookup and the arrival-ordered list agree, the
// same body again is a 409, and the round delivers without incident.
// The committed corpus under testdata/fuzz holds one valid
// registration and one body per way of being refused.
func FuzzRegistrationJSON(f *testing.F) {
	f.Add([]byte(`{"id":7,"flows":[{"src":0,"dst":1,"size":4194304},{"src":2,"dst":3,"size":1}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		const nPorts = 8
		coord, _, _ := manualCoordinator(t, "saath", nPorts, 8*time.Millisecond, AdmissionConfig{})
		post := func() int {
			w := httptest.NewRecorder()
			coord.handleCoFlows(w, httptest.NewRequest(http.MethodPost, "/coflows", bytes.NewReader(body)))
			return w.Code
		}
		code := post()

		// What the handler should have seen, decoded the way it decodes.
		var sj SpecJSON
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&sj) == nil
		malformed := !decoded || len(sj.Flows) == 0
		for _, fl := range sj.Flows {
			if fl.Src < 0 || fl.Src >= nPorts || fl.Dst < 0 || fl.Dst >= nPorts {
				malformed = true
			}
		}
		if malformed && code != http.StatusBadRequest {
			t.Fatalf("malformed registration answered %d, want 400", code)
		}
		switch code {
		case http.StatusBadRequest:
			if n := coord.LiveCount(); n != 0 {
				t.Fatalf("refused registration left %d live coflows", n)
			}
		case http.StatusCreated:
			if n := coord.LiveCount(); n != 1 || len(coord.snap.Active) != 1 ||
				coord.live[coord.snap.Active[0].ID()] == nil || int64(coord.snap.Active[0].ID()) != sj.ID {
				t.Fatalf("accepted coflow %d is not live exactly once: %d live, %d active", sj.ID, n, len(coord.snap.Active))
			}
			if again := post(); again != http.StatusConflict {
				t.Fatalf("the same registration again answered %d, want 409", again)
			}
		default:
			t.Fatalf("POST /coflows answered %d on an open-admission coordinator", code)
		}
		if live, want := coord.StepSchedule(), coord.LiveCount(); live != want {
			t.Fatalf("StepSchedule reports %d live, LiveCount %d", live, want)
		}
	})
}
