// Package runtime is the distributed Saath prototype (§5): a global
// coordinator and per-node local agents that move real bytes over TCP.
//
// Control plane: agents hold a persistent TCP connection to the
// coordinator, report per-flow statistics every sync interval δ, and
// receive rate schedules computed by any sched.Scheduler. Frameworks
// register CoFlows through a small HTTP REST API (register /
// deregister / update), exactly the surface §5 describes.
//
// Data plane: the sending agent dials the receiving agent and writes
// the flow's bytes through a token-bucket rate limiter that tracks the
// latest schedule. Receivers count and discard. This exercises the
// full coordinator→agent→socket path of the paper's testbed, scaled to
// localhost (see DESIGN.md substitutions).
package runtime

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Message kinds carried on the control connection.
const (
	kindHello    = "hello"
	kindStats    = "stats"
	kindSchedule = "schedule"
)

// envelope frames every control message.
type envelope struct {
	Kind     string       `json:"kind"`
	Hello    *helloMsg    `json:"hello,omitempty"`
	Stats    *statsMsg    `json:"stats,omitempty"`
	Schedule *scheduleMsg `json:"schedule,omitempty"`
}

// helloMsg introduces an agent to the coordinator.
type helloMsg struct {
	Port     int    `json:"port"`     // the node/port index this agent serves
	DataAddr string `json:"dataAddr"` // where peers dial to deliver flow bytes
}

// FlowStat is one flow's progress as observed by its sending agent.
type FlowStat struct {
	CoFlow    int64 `json:"coflow"`
	Index     int   `json:"index"`
	Sent      int64 `json:"sent"`
	Done      bool  `json:"done"`
	DoneAtUS  int64 `json:"doneAtUS"`  // agent wall-clock µs since epoch start
	Available bool  `json:"available"` // data ready (§4.3 pipelining)
}

// statsMsg is the periodic agent→coordinator report.
type statsMsg struct {
	Port  int        `json:"port"`
	Flows []FlowStat `json:"flows"`
}

// FlowOrder tells a sending agent to run one flow at a given rate.
type FlowOrder struct {
	CoFlow  int64   `json:"coflow"`
	Index   int     `json:"index"`
	DstPort int     `json:"dstPort"`
	DstAddr string  `json:"dstAddr"`
	Size    int64   `json:"size"`
	RateBps float64 `json:"rateBps"` // bytes per second; 0 pauses the flow
	// slot is the flow's dense index in the coordinator (coflow.Flow.Idx),
	// where in-process agents look the flow up; never on the wire.
	slot int32
}

// scheduleMsg is the coordinator→agent schedule push for one interval.
type scheduleMsg struct {
	Epoch  int64       `json:"epoch"`
	Orders []FlowOrder `json:"orders"`
}

// maxFrame bounds a control frame; a schedule for tens of thousands of
// flows stays well under this.
const maxFrame = 64 << 20

// writeFrame writes one length-prefixed JSON message.
func writeFrame(w io.Writer, env *envelope) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("runtime: encode %s: %w", env.Kind, err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame reads one length-prefixed JSON message.
func readFrame(r io.Reader) (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("runtime: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	env := new(envelope)
	if err := json.Unmarshal(payload, env); err != nil {
		return nil, fmt.Errorf("runtime: decode frame: %w", err)
	}
	return env, nil
}

// dataHeader precedes flow bytes on a data-plane connection.
type dataHeader struct {
	CoFlow int64 `json:"coflow"`
	Index  int   `json:"index"`
	Size   int64 `json:"size"`
}

// writeDataHeader frames the header with a 2-byte length prefix.
func writeDataHeader(w io.Writer, h dataHeader) error {
	payload, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if len(payload) > 0xffff {
		return fmt.Errorf("runtime: data header too large")
	}
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

func readDataHeader(r io.Reader) (dataHeader, error) {
	var hdr [2]byte
	var h dataHeader
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return h, err
	}
	payload := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return h, err
	}
	err := json.Unmarshal(payload, &h)
	return h, err
}

// flowKey identifies a flow across the wire.
type flowKey struct {
	CoFlow int64
	Index  int
}
