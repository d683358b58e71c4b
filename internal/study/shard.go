package study

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"saath/internal/sweep"
)

// ShardDump is the output of one sharded study run: the digested
// entries for this shard's slice of the grid plus enough identity to
// validate a merge. Encode / ReadShard (shardcodec.go) carry every value
// in it bit-exactly, so a merged Summary reproduces single-process
// output byte for byte.
type ShardDump struct {
	Study string
	Shard int
	Of    int
	// Jobs is the FULL grid size (not this shard's share); a merge
	// across dumps with differing grids fails fast.
	Jobs int
	// KeysHash fingerprints the grid identity (SHA-256 over every
	// job's Key() in index order), catching merges of shards produced
	// from different flag sets or study revisions.
	KeysHash string
	Entries  []sweep.Entry
}

// gridFingerprint hashes the study's expanded jobs: key, scheduler
// parameters, simulator configuration (including dereferenced
// dynamics/pipelining) and telemetry spec. Shards produced under
// drifted flags — a different -rate, -delta, -metrics setting — thus
// fail the merge instead of silently mixing physical configurations.
// Trace-mutation closures (Variant.Mutate) cannot be hashed; they are
// covered indirectly through the variant name in Key().
func gridFingerprint(jobs []sweep.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		fmt.Fprintf(h, "%d:%s|params=%+v", j.Index, j.Key(), j.Params)
		c := j.Config
		fmt.Fprintf(h, "|delta=%v|rate=%v|horizon=%v|skipval=%t",
			c.Delta, c.PortRate, c.Horizon, c.SkipValidation)
		if c.Dynamics != nil {
			fmt.Fprintf(h, "|dyn=%+v", *c.Dynamics)
		}
		if c.Pipelining != nil {
			fmt.Fprintf(h, "|pipe=%+v", *c.Pipelining)
		}
		fmt.Fprintf(h, "|telemetry=%+v\n", j.Telemetry)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ShardDump packages a sharded run for merging: the same payload
// WriteShard serializes to a file, as a struct. Call it on the Result
// of st.Run(ctx, sh) with the same Sharded runner.
func (r *Result) ShardDump(sh Sharded) (*ShardDump, error) {
	if err := sh.validate(); err != nil {
		return nil, err
	}
	jobs := r.study.Jobs()
	dump := &ShardDump{
		Study:    r.study.name,
		Shard:    sh.Index,
		Of:       sh.Count,
		Jobs:     len(jobs),
		KeysHash: gridFingerprint(jobs),
		Entries:  r.summary.Entries(),
	}
	for _, e := range dump.Entries {
		if e.Index%sh.Count != sh.Index {
			return nil, fmt.Errorf("study %s: entry %d does not belong to shard %d/%d",
				r.study.name, e.Index, sh.Index, sh.Count)
		}
	}
	return dump, nil
}

// WriteShard exports a sharded run for later merging.
func (r *Result) WriteShard(w io.Writer, sh Sharded) error {
	dump, err := r.ShardDump(sh)
	if err != nil {
		return err
	}
	return dump.Encode(w)
}

// shape checks the dump's internal consistency — everything that can
// be validated without knowing the study it came from.
func (d *ShardDump) shape() error {
	switch {
	case d.Study == "":
		return fmt.Errorf("missing study name")
	case d.Of < 1:
		return fmt.Errorf("shard count %d < 1", d.Of)
	case d.Shard < 0 || d.Shard >= d.Of:
		return fmt.Errorf("shard index %d outside [0, %d)", d.Shard, d.Of)
	case d.Jobs < 1:
		return fmt.Errorf("grid size %d < 1", d.Jobs)
	}
	if len(d.KeysHash) != sha256.Size*2 {
		return fmt.Errorf("grid fingerprint %q is not a sha256 hex digest", d.KeysHash)
	}
	if _, err := hex.DecodeString(d.KeysHash); err != nil {
		return fmt.Errorf("grid fingerprint %q is not a sha256 hex digest", d.KeysHash)
	}
	for _, e := range d.Entries {
		if e.Index < 0 || e.Index >= d.Jobs {
			return fmt.Errorf("entry index %d outside the %d-job grid", e.Index, d.Jobs)
		}
		if e.Index%d.Of != d.Shard {
			return fmt.Errorf("entry %d does not belong to shard %d/%d", e.Index, d.Shard, d.Of)
		}
	}
	return nil
}

// check validates the dump against the study it claims to belong to:
// name, grid size, and the grid fingerprint — the per-dump part of
// MergeShards' validation, given the study identity it already
// computed.
func (d *ShardDump) check(study string, jobs int, hash string) error {
	if err := d.shape(); err != nil {
		return fmt.Errorf("study %s: shard dump: %w", study, err)
	}
	switch {
	case d.Study != study:
		return fmt.Errorf("study %s: shard dump belongs to study %q", study, d.Study)
	case d.Jobs != jobs:
		return fmt.Errorf("study %s: shard %d/%d was produced from a %d-job grid, this study expands to %d",
			study, d.Shard, d.Of, d.Jobs, jobs)
	case d.KeysHash != hash:
		return fmt.Errorf("study %s: shard %d/%d grid fingerprint mismatch (different flags or study revision?)",
			study, d.Shard, d.Of)
	}
	return nil
}

// MergeShards reassembles a full study Result from shard dumps. It
// validates that the dumps belong to st (name, grid size, job-key
// fingerprint), that together they cover every shard of one i/n
// partition exactly once, and that every grid index is present — a
// merge is either provably complete or an error, never silently
// partial. The merged Result's summary renders and exports
// byte-identically to a single-process run of the same study.
func MergeShards(st *Study, dumps ...*ShardDump) (*Result, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("study %s: no shard dumps to merge", st.name)
	}
	jobs := st.Jobs()
	wantHash := gridFingerprint(jobs)
	of := dumps[0].Of
	seenShard := make(map[int]bool, len(dumps))
	sum := sweep.NewSummary()
	for _, d := range dumps {
		if err := d.check(st.name, len(jobs), wantHash); err != nil {
			return nil, err
		}
		switch {
		case d.Of != of:
			return nil, fmt.Errorf("study %s: mixed shard partitions (%d-way and %d-way)", st.name, of, d.Of)
		case seenShard[d.Shard]:
			return nil, fmt.Errorf("study %s: shard %d/%d supplied twice", st.name, d.Shard, of)
		}
		seenShard[d.Shard] = true
		if err := sum.Restore(d.Entries...); err != nil {
			return nil, fmt.Errorf("study %s: shard %d/%d: %w", st.name, d.Shard, of, err)
		}
	}
	if len(seenShard) != of {
		var missing []int
		for i := 0; i < of; i++ {
			if !seenShard[i] {
				missing = append(missing, i)
			}
		}
		return nil, fmt.Errorf("study %s: incomplete merge: missing shard(s) %v of %d", st.name, missing, of)
	}
	if sum.Len() != len(jobs) {
		return nil, fmt.Errorf("study %s: merge covers %d of %d jobs", st.name, sum.Len(), len(jobs))
	}
	return &Result{study: st, summary: sum}, nil
}

// fileSafe maps a study name onto a flat, glob-safe file stem: study
// names may be workload file paths (saath-sim names its ad-hoc grid
// after the trace), and path separators or glob metacharacters in a
// file name would scatter dumps outside the -out directory or break
// the merge glob. Merge validation matches on the dump's embedded
// study name and grid fingerprint, so the stem only has to be stable,
// not unique.
func fileSafe(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

// shardFileExt marks shard dumps on disk. Dumps written before the
// binary format were "<stem>.json"; MergeShardDir names them in its
// error when they are all it finds.
const shardFileExt = ".shard"

// ShardFileName is the canonical on-disk name for a shard dump.
func ShardFileName(study string, sh Sharded) string {
	return fmt.Sprintf("%s-shard-%d-of-%d%s", fileSafe(study), sh.Index, sh.Count, shardFileExt)
}

// WriteShardFile writes the shard dump under dir (created if needed)
// with the canonical name, returning the path. The dump is written to a
// temporary file, synced and renamed into place, so a concurrent merge
// or a killed worker never leaves a partial dump under the name the
// merge glob matches.
func (r *Result) WriteShardFile(dir string, sh Sharded) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ShardFileName(r.study.name, sh))
	f, err := os.CreateTemp(dir, ".shard-*.tmp")
	if err != nil {
		return "", err
	}
	err = r.WriteShard(f, sh)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return path, nil
}

// MergeShardDir merges every shard dump of st found in dir (files
// matching "<study>-shard-*-of-*.shard").
func MergeShardDir(st *Study, dir string) (*Result, error) {
	stem := filepath.Join(dir, fileSafe(st.name)+"-shard-*-of-*")
	paths, err := filepath.Glob(stem + shardFileExt)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		if old, _ := filepath.Glob(stem + ".json"); len(old) > 0 {
			return nil, fmt.Errorf("study %s: no shard dumps matching %s: the directory holds only %d old-format JSON dump(s) (%s, ...); re-run the shards",
				st.name, stem+shardFileExt, len(old), filepath.Base(old[0]))
		}
		return nil, fmt.Errorf("study %s: no shard dumps matching %s", st.name, stem+shardFileExt)
	}
	sort.Strings(paths)
	dumps := make([]*ShardDump, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		d, err := ReadShard(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		dumps = append(dumps, d)
	}
	return MergeShards(st, dumps...)
}
