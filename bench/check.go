package main

import (
	"encoding/binary"
	"io"
)

// One operation is one coflow offered. It fails when its job errors
// (allocation audit, horizon, panic, admission reject), when it is
// missing from the result or present twice, when it completes before
// it arrives, or when it completes faster than its busiest port could
// move its bytes at line rate.

// slackUs absorbs the engine's integer-microsecond rounding.
const slackUs = 1

// checkReplay checks one replay of one trace and books its operations.
func checkReplay(out *repOut, off *offered, policy string, got *replayed, err error) {
	out.ops += off.coflows
	if err != nil {
		out.failed += off.coflows
		out.problemf("%s: %v", policy, err)
		return
	}
	out.completions += len(got.coflows)
	seen := make(map[int64]bool, len(got.coflows))
	bad := 0
	for _, c := range got.coflows {
		o, ok := off.byID[c.ID]
		switch {
		case !ok:
			out.problemf("%s: coflow %d completed but was never offered", policy, c.ID)
			bad++
		case seen[c.ID]:
			out.problemf("%s: coflow %d completed twice", policy, c.ID)
			bad++
		case c.DoneUs < c.ArrivalUs || c.ArrivalUs != o.arrivalUs:
			out.problemf("%s: coflow %d arrived %d (offered %d), done %d", policy, c.ID, c.ArrivalUs, o.arrivalUs, c.DoneUs)
			bad++
		case float64(c.CCT+slackUs) < o.floorUs:
			out.problemf("%s: coflow %d CCT %d us beats its port floor %.0f us", policy, c.ID, c.CCT, o.floorUs)
			bad++
		}
		seen[c.ID] = true
	}
	if missing := off.coflows - len(seen); missing > 0 {
		out.problemf("%s: %d offered coflows never completed", policy, missing)
		bad += missing
	}
	out.failed += min(bad, off.coflows)
}

// checkGridJob is checkReplay for a job of a study result, which keeps
// only each coflow's CCT.
func checkGridJob(out *repOut, off *offered, j gridJob) {
	if off == nil {
		out.problemf("study: job with unknown study seed %d", j.studySeed)
		return
	}
	out.ops += off.coflows
	if j.errMsg != "" {
		out.failed += off.coflows
		out.problemf("study job %s/%d: %s", j.policy, j.studySeed, j.errMsg)
		return
	}
	out.completions += len(j.cct)
	bad := 0
	if j.samples != len(j.cct) {
		out.problemf("study job %s/%d: %d CCT samples for %d coflows", j.policy, j.studySeed, j.samples, len(j.cct))
		bad++
	}
	for id, o := range off.byID {
		cct, ok := j.cct[id]
		switch {
		case !ok:
			out.problemf("study job %s/%d: coflow %d never completed", j.policy, j.studySeed, id)
			bad++
		case float64(cct+slackUs) < o.floorUs:
			out.problemf("study job %s/%d: coflow %d CCT %d us beats its port floor %.0f us", j.policy, j.studySeed, id, cct, o.floorUs)
			bad++
		}
	}
	if extra := len(j.cct) - len(off.byID); extra > 0 {
		out.problemf("study job %s/%d: %d completions were never offered", j.policy, j.studySeed, extra)
		bad += extra
	}
	out.failed += min(bad, off.coflows)
}

// hashOutcomes folds one replay's completions, in result order, into
// the repetition's result digest.
func hashOutcomes(h io.Writer, policy string, cs []outcome) {
	io.WriteString(h, policy)
	var b [24]byte
	for _, c := range cs {
		binary.LittleEndian.PutUint64(b[0:], uint64(c.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.ArrivalUs))
		binary.LittleEndian.PutUint64(b[16:], uint64(c.DoneUs))
		h.Write(b[:])
	}
}
