// Package capture defines the pulse-profile recording the OFFRAMPS FPGA
// exports while monitoring a print: one 16-byte transaction per 0.1 s
// window carrying the four axis step counters (paper §V-B "the UART
// control unit sends a 16-byte transaction containing step counts for all
// of the motors each 0.1 seconds").
//
// Recordings serialize to the CSV form shown in the paper's Figure 4:
//
//	Index, X, Y, Z, E
//	5113, 6060, 8266, 960, 52843
//	...
package capture

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"offramps/internal/sim"
)

// Transaction is one exported step-count snapshot. Counts are signed net
// step totals since homing (they are absolute positions in steps); after a
// normal homing they stay non-negative, but a trojan can drive them
// anywhere, so the format keeps the sign.
type Transaction struct {
	Index      uint32 // 0-based window number since capture start
	X, Y, Z, E int32
}

// Frame encodes the transaction payload as the FPGA's 16-byte UART frame:
// the four counters big-endian. (The index is implicit in arrival order on
// the wire; it is materialized when the frame is logged.)
func (t Transaction) Frame() [16]byte {
	var f [16]byte
	binary.BigEndian.PutUint32(f[0:4], uint32(t.X))
	binary.BigEndian.PutUint32(f[4:8], uint32(t.Y))
	binary.BigEndian.PutUint32(f[8:12], uint32(t.Z))
	binary.BigEndian.PutUint32(f[12:16], uint32(t.E))
	return f
}

// FromFrame decodes a 16-byte frame into a transaction with the given
// index.
func FromFrame(index uint32, f [16]byte) Transaction {
	return Transaction{
		Index: index,
		X:     int32(binary.BigEndian.Uint32(f[0:4])),
		Y:     int32(binary.BigEndian.Uint32(f[4:8])),
		Z:     int32(binary.BigEndian.Uint32(f[8:12])),
		E:     int32(binary.BigEndian.Uint32(f[12:16])),
	}
}

// Column returns the named counter value ("X", "Y", "Z", "E").
func (t Transaction) Column(name string) (int32, error) {
	switch name {
	case "X":
		return t.X, nil
	case "Y":
		return t.Y, nil
	case "Z":
		return t.Z, nil
	case "E":
		return t.E, nil
	default:
		return 0, fmt.Errorf("capture: unknown column %q", name)
	}
}

// Columns lists the counter column names in export order.
var Columns = []string{"X", "Y", "Z", "E"}

// Recording is a complete capture of one print.
//
// Period and StartedAt are populated by live capture but NOT by the CSV
// format — ReadCSV leaves both zero, since the paper's trace carries
// only the counter sequence. Code that needs wall-clock window timing
// must go through WindowTime, which rejects zero-period recordings
// explicitly; replay-style detectors that only consume the transaction
// sequence work on either kind.
type Recording struct {
	// Period is the export window length (0.1 s on the paper's hardware).
	// Zero for recordings parsed from CSV.
	Period sim.Time
	// StartedAt is the simulation time the first window opened (after
	// homing + first step edge, per the paper's synchronization rule).
	StartedAt sim.Time
	// Transactions in index order.
	Transactions []Transaction
}

// Len returns the number of transactions.
func (r *Recording) Len() int { return len(r.Transactions) }

// Final returns the last transaction and true, or false when empty. The
// detector's end-of-print 0 %-margin check runs against Final.
func (r *Recording) Final() (Transaction, bool) {
	if len(r.Transactions) == 0 {
		return Transaction{}, false
	}
	return r.Transactions[len(r.Transactions)-1], true
}

// WindowTime returns the simulated instant window i was exported. It
// errors — instead of returning a garbage zero-period extrapolation —
// when the recording carries no timing (Period zero, the ReadCSV case)
// or when i is out of range.
func (r *Recording) WindowTime(i int) (sim.Time, error) {
	if r.Period <= 0 {
		return 0, fmt.Errorf("capture: recording has no period (parsed from CSV?); window times unavailable")
	}
	if i < 0 || i >= len(r.Transactions) {
		return 0, fmt.Errorf("capture: window %d out of range [0,%d)", i, len(r.Transactions))
	}
	return r.StartedAt + sim.Time(i+1)*r.Period, nil
}

// Append adds a transaction, enforcing contiguous indices.
func (r *Recording) Append(t Transaction) error {
	if len(r.Transactions) > 0 {
		if want := r.Transactions[len(r.Transactions)-1].Index + 1; t.Index != want {
			return fmt.Errorf("capture: non-contiguous index %d, want %d", t.Index, want)
		}
	}
	r.Transactions = append(r.Transactions, t)
	return nil
}

// WriteCSV serializes the recording in the paper's format.
func (r *Recording) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "Index, X, Y, Z, E"); err != nil {
		return fmt.Errorf("capture: write header: %w", err)
	}
	for _, t := range r.Transactions {
		if _, err := fmt.Fprintf(bw, "%d, %d, %d, %d, %d\n", t.Index, t.X, t.Y, t.Z, t.E); err != nil {
			return fmt.Errorf("capture: write transaction %d: %w", t.Index, err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a recording from the paper's format. Period and
// StartedAt are not stored in the CSV and are left zero; comparisons only
// need the transaction sequence.
func ReadCSV(rd io.Reader) (*Recording, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	rec := &Recording{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 {
			if !strings.HasPrefix(strings.ToUpper(strings.ReplaceAll(text, " ", "")), "INDEX,X,Y,Z,E") {
				return nil, fmt.Errorf("capture: line 1: bad header %q", text)
			}
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("capture: line %d: want 5 fields, got %d", line, len(fields))
		}
		var vals [5]int64
		for i, f := range fields {
			// The index is a uint32 and the counts are int32s: parse each
			// at its own width so an out-of-range value is an error, not a
			// silently truncated count.
			bits := 32
			if i == 0 {
				bits = 64
			}
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, bits)
			if err != nil {
				return nil, fmt.Errorf("capture: line %d field %d: %w", line, i, err)
			}
			vals[i] = v
		}
		if vals[0] < 0 || vals[0] > int64(^uint32(0)) {
			return nil, fmt.Errorf("capture: line %d: index %d out of range", line, vals[0])
		}
		t := Transaction{
			Index: uint32(vals[0]),
			X:     int32(vals[1]), Y: int32(vals[2]),
			Z: int32(vals[3]), E: int32(vals[4]),
		}
		if err := rec.Append(t); err != nil {
			return nil, fmt.Errorf("capture: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("capture: read: %w", err)
	}
	return rec, nil
}
