// Package storage provides discrete-event models of the storage hardware
// used in the paper's evaluation: the Greendog workstation's HDD, SATA SSD
// and Intel Optane 900p NVMe drive, and Kebnekaise's Lustre parallel file
// system. Devices charge service time to the calling simulated thread and
// keep cumulative activity counters that the dstat sampler reads.
package storage

import "repro/internal/sim"

// Counters is a snapshot of cumulative device activity. The dstat sampler
// differences successive snapshots to produce per-second activity series
// (paper Figs. 3, 4 and 12).
type Counters struct {
	ReadOps      int64
	WriteOps     int64
	MetaOps      int64
	BytesRead    int64
	BytesWritten int64
	BusyTime     sim.Duration // time the device spent servicing requests
}

// Sub returns c - o, the activity between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		ReadOps:      c.ReadOps - o.ReadOps,
		WriteOps:     c.WriteOps - o.WriteOps,
		MetaOps:      c.MetaOps - o.MetaOps,
		BytesRead:    c.BytesRead - o.BytesRead,
		BytesWritten: c.BytesWritten - o.BytesWritten,
		BusyTime:     c.BusyTime - o.BusyTime,
	}
}

// Device is a storage device servicing positioned reads and writes plus
// cold metadata lookups. Positions are absolute device byte addresses
// assigned by the VFS allocator; length is in bytes. Calls block the
// simulated thread for the modelled service time.
type Device interface {
	// Name identifies the device in dstat output (e.g. "sda").
	Name() string
	// Read services a read of length bytes at device position pos.
	Read(t *sim.Thread, pos, length int64)
	// Write services a write of length bytes at device position pos.
	Write(t *sim.Thread, pos, length int64)
	// Metadata services a cold metadata lookup (directory entry or inode
	// read) near device position pos.
	Metadata(t *sim.Thread, pos int64)
	// Counters returns a snapshot of cumulative activity.
	Counters() Counters
	// Capacity returns the device size in bytes.
	Capacity() int64
}

// tally is the shared counter bookkeeping embedded by device models.
type tally struct {
	c Counters
}

func (ta *tally) read(n int64, busy sim.Duration) {
	ta.c.ReadOps++
	ta.c.BytesRead += n
	ta.c.BusyTime += busy
}

func (ta *tally) write(n int64, busy sim.Duration) {
	ta.c.WriteOps++
	ta.c.BytesWritten += n
	ta.c.BusyTime += busy
}

func (ta *tally) meta(n int64, busy sim.Duration) {
	ta.c.MetaOps++
	ta.c.BytesRead += n
	ta.c.BusyTime += busy
}

// Counters returns a snapshot of cumulative activity.
func (ta *tally) Counters() Counters { return ta.c }

// bytesOver converts a byte count and a bytes-per-second rate into a
// duration.
func bytesOver(n int64, bytesPerSec float64) sim.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / bytesPerSec * float64(sim.Second))
}

// The cluster interconnect (EDR InfiniBand, ~100 Gbit/s per node): a
// node-to-node transfer — a peer-cache serve, a data-service batch, a
// gradient allreduce — moves its bytes at InterconnectBandwidth, and a
// peer request pays InterconnectLatency (one RDMA round trip).
const (
	InterconnectLatency   = 5 * sim.Microsecond
	InterconnectBandwidth = 12.5e9 // bytes/s
)

// MiB and friends are byte-size helpers used across device parameters.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
	TiB int64 = 1 << 40
)
