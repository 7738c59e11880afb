package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/darshan"
)

// encodeLog returns the run's encoded Darshan log, encoding it now when
// the workload's own post-run steps did not.
func (o *outcome) encodeLog() ([]byte, error) {
	if o.log != nil {
		return o.log, nil
	}
	var buf bytes.Buffer
	var err error
	if o.merged != nil {
		err = darshan.WriteMergedLog(&buf, o.merged)
	} else {
		err = darshan.WriteSnapshotLog(&buf, o.snaps[0])
	}
	if err != nil {
		return nil, fmt.Errorf("encode log: %w", err)
	}
	o.log = buf.Bytes()
	return o.log, nil
}

// records returns the run's reference POSIX and STDIO records: the merged
// reduction across ranks, or the single node's snapshot.
func (o *outcome) records() ([]darshan.PosixRecord, []darshan.StdioRecord) {
	if o.merged != nil {
		return o.merged.Posix, o.merged.Stdio
	}
	return o.snaps[0].Posix, o.snaps[0].Stdio
}

// setDarshanCounts records the exact Darshan-counted operation totals.
func (o *outcome) setDarshanCounts() {
	posix, stdio := o.records()
	var pops, sops int64
	for i := range posix {
		c := &posix[i].Counters
		pops += c[darshan.POSIX_OPENS] + c[darshan.POSIX_READS] + c[darshan.POSIX_WRITES] +
			c[darshan.POSIX_SEEKS] + c[darshan.POSIX_STATS] + c[darshan.POSIX_FSYNCS]
	}
	for i := range stdio {
		c := &stdio[i].Counters
		sops += c[darshan.STDIO_OPENS] + c[darshan.STDIO_READS] + c[darshan.STDIO_WRITES] +
			c[darshan.STDIO_SEEKS] + c[darshan.STDIO_FLUSHES]
	}
	var segs int64
	for _, s := range o.snaps {
		for i := range s.DXT {
			segs += int64(len(s.DXT[i].ReadSegs) + len(s.DXT[i].WriteSegs))
		}
	}
	o.counts["darshan.posix_ops"] = float64(pops)
	o.counts["darshan.stdio_ops"] = float64(sops)
	o.counts["darshan.records"] = float64(len(posix) + len(stdio))
	o.counts["darshan.dxt_segments"] = float64(segs)
	o.counts["tfio.files"] = float64(o.capture.files)
	o.counts["tfio.read_mb"] = float64(o.capture.bytes) / 1e6
	o.counts["sim.virtual_s"] = float64(o.virtualNs) / 1e9
}

// ops is the run's Darshan-counted POSIX plus STDIO operation count.
func (o *outcome) ops() float64 {
	return o.counts["darshan.posix_ops"] + o.counts["darshan.stdio_ops"]
}

// digest hashes the run's simulated results: virtual end time, encoded
// Darshan log and every exact count. Two runs of one workload and seed
// must agree on it, and so must two builds that change host code only.
func (o *outcome) digest() (string, error) {
	log, err := o.encodeLog()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, o.virtualNs)
	_ = binary.Write(h, binary.LittleEndian, int64(len(log)))
	h.Write(log)
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(o.counts[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// check runs every output check on one run, even after one fails, and
// returns how many ran and the failures. refDigest is the first run's
// digest ("" for the first run itself, which defines it).
func (o *outcome) check(refDigest string) (checks int, failures []error) {
	run := func(err error) {
		checks++
		if err != nil {
			failures = append(failures, err)
		}
	}
	run(o.checkRoundTrip())
	run(o.checkBytes())
	if o.invariants != nil {
		run(o.invariants())
	}
	run(o.checkDigest(refDigest))
	return checks, failures
}

// checkBytes requires the bytes the capture function received to equal
// the run's Darshan-counted POSIX_BYTES_READ.
func (o *outcome) checkBytes() error {
	posix, _ := o.records()
	var read int64
	for i := range posix {
		read += posix[i].Counters[darshan.POSIX_BYTES_READ]
	}
	if read != o.capture.bytes {
		return fmt.Errorf("capture function received %d bytes, Darshan POSIX_BYTES_READ is %d", o.capture.bytes, read)
	}
	return nil
}

// checkDigest requires the run to repeat the first run's digest.
func (o *outcome) checkDigest(refDigest string) error {
	d, err := o.digest()
	if err != nil {
		return err
	}
	if refDigest != "" && d != refDigest {
		return fmt.Errorf("digest %s differs from the first run's %s", d, refDigest)
	}
	return nil
}

// checkRoundTrip decodes the run's log with ReadLog, ReadMergedLog (for a
// merged log) and a LogReader drain, and requires each to reproduce the
// source records' counters exactly.
func (o *outcome) checkRoundTrip() error {
	log, err := o.encodeLog()
	if err != nil {
		return err
	}
	posix, stdio := o.records()
	l, err := darshan.ReadLog(bytes.NewReader(log))
	if err != nil {
		return fmt.Errorf("ReadLog: %w", err)
	}
	if err := sameRecords("ReadLog", posix, stdio, l.Posix, l.Stdio); err != nil {
		return err
	}
	if o.merged != nil {
		m, err := darshan.ReadMergedLog(bytes.NewReader(log))
		if err != nil {
			return fmt.Errorf("ReadMergedLog: %w", err)
		}
		if err := sameRecords("ReadMergedLog", posix, stdio, m.Posix, m.Stdio); err != nil {
			return err
		}
	}
	gotP, gotS, err := drain(log)
	if err != nil {
		return err
	}
	return sameRecords("LogReader", posix, stdio, gotP, gotS)
}

// drain walks a log with the streaming reader.
func drain(log []byte) ([]darshan.PosixRecord, []darshan.StdioRecord, error) {
	lr, err := darshan.NewLogReader(bytes.NewReader(log))
	if err != nil {
		return nil, nil, fmt.Errorf("LogReader: %w", err)
	}
	var posix []darshan.PosixRecord
	var stdio []darshan.StdioRecord
	for {
		rec, ok, err := lr.NextPosix()
		if err != nil {
			return nil, nil, fmt.Errorf("LogReader: %w", err)
		}
		if !ok {
			break
		}
		posix = append(posix, rec)
	}
	for {
		rec, ok, err := lr.NextStdio()
		if err != nil {
			return nil, nil, fmt.Errorf("LogReader: %w", err)
		}
		if !ok {
			break
		}
		stdio = append(stdio, rec)
	}
	if err := lr.Finish(); err != nil {
		return nil, nil, fmt.Errorf("LogReader: %w", err)
	}
	return posix, stdio, nil
}

// sameRecords compares decoded records against the source by record id.
func sameRecords(via string, wantP []darshan.PosixRecord, wantS []darshan.StdioRecord, gotP []darshan.PosixRecord, gotS []darshan.StdioRecord) error {
	if len(gotP) != len(wantP) || len(gotS) != len(wantS) {
		return fmt.Errorf("%s: %d POSIX + %d STDIO records, want %d + %d", via, len(gotP), len(gotS), len(wantP), len(wantS))
	}
	byID := make(map[uint64]*darshan.PosixRecord, len(gotP))
	for i := range gotP {
		byID[gotP[i].ID] = &gotP[i]
	}
	for i := range wantP {
		g, ok := byID[wantP[i].ID]
		if !ok || g.Counters != wantP[i].Counters || g.FCounters != wantP[i].FCounters {
			return fmt.Errorf("%s: POSIX record %x differs after the round trip", via, wantP[i].ID)
		}
	}
	sByID := make(map[uint64]*darshan.StdioRecord, len(gotS))
	for i := range gotS {
		sByID[gotS[i].ID] = &gotS[i]
	}
	for i := range wantS {
		g, ok := sByID[wantS[i].ID]
		if !ok || g.Counters != wantS[i].Counters || g.FCounters != wantS[i].FCounters {
			return fmt.Errorf("%s: STDIO record %x differs after the round trip", via, wantS[i].ID)
		}
	}
	return nil
}
