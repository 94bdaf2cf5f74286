package capture

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	tx := Transaction{Index: 42, X: 6060, Y: -8266, Z: 960, E: 52843}
	back := FromFrame(42, tx.Frame())
	if back != tx {
		t.Errorf("round trip: %+v != %+v", back, tx)
	}
}

// Property: Frame/FromFrame round-trips any counter values, including
// negatives.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(x, y, z, e int32, idx uint32) bool {
		tx := Transaction{Index: idx, X: x, Y: y, Z: z, E: e}
		return FromFrame(idx, tx.Frame()) == tx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColumn(t *testing.T) {
	tx := Transaction{X: 1, Y: 2, Z: 3, E: 4}
	for i, col := range Columns {
		v, err := tx.Column(col)
		if err != nil || v != int32(i+1) {
			t.Errorf("Column(%s) = %d, %v", col, v, err)
		}
	}
	if _, err := tx.Column("W"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestAppendContiguity(t *testing.T) {
	var r Recording
	if err := r.Append(Transaction{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 3}); err == nil {
		t.Error("gap in indices accepted")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAppendArbitraryStart(t *testing.T) {
	// Excerpt files (like the paper's Figure 4 listing) start mid-print.
	var r Recording
	if err := r.Append(Transaction{Index: 5113}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 5114}); err != nil {
		t.Fatal(err)
	}
}

func TestFinal(t *testing.T) {
	var r Recording
	if _, ok := r.Final(); ok {
		t.Error("empty recording has a final transaction")
	}
	r.Append(Transaction{Index: 0, X: 5})
	r.Append(Transaction{Index: 1, X: 9})
	f, ok := r.Final()
	if !ok || f.X != 9 {
		t.Errorf("Final = %+v, %v", f, ok)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := &Recording{}
	r.Append(Transaction{Index: 0, X: 10, Y: -20, Z: 30, E: 40})
	r.Append(Transaction{Index: 1, X: 11, Y: -21, Z: 31, E: 41})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Index, X, Y, Z, E\n") {
		t.Errorf("header: %q", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Transactions[1] != r.Transactions[1] {
		t.Errorf("round trip: %+v", back.Transactions)
	}
}

func TestCSVPaperFigure4Excerpt(t *testing.T) {
	// The exact text from Figure 4a must parse.
	src := `Index, X, Y, Z, E
5113, 6060, 8266, 960, 52843
5114, 6304, 8095, 960, 52856
5115, 7218, 8285, 960, 52856
5116, 8166, 8483, 960, 52856
5117, 8671, 8620, 960, 52859
5118, 8384, 8733, 960, 52875
`
	r, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Transactions[0].Index != 5113 || r.Transactions[5].E != 52875 {
		t.Errorf("parsed %+v", r.Transactions)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"bogus header\n1, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n1, 2, 3\n",
		"Index, X, Y, Z, E\na, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n-1, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n0, 1, 1, 1, 1\n5, 1, 1, 1, 1\n", // gap
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", src)
		}
	}
}

func TestCSVBlankLinesTolerated(t *testing.T) {
	src := "Index, X, Y, Z, E\n0, 1, 2, 3, 4\n\n1, 2, 3, 4, 5\n"
	r, err := ReadCSV(strings.NewReader(src))
	if err != nil || r.Len() != 2 {
		t.Errorf("blank-line parse: %v, len %d", err, r.Len())
	}
}

// TestCSVCountsOutOfInt32Rejected: a count outside int32 is an error.
// Reading it as int64 and truncating served "4294967297" as X=1 and
// "-4294967296" as E=0, so a comparison ran on counts the file never
// held. The int32 extremes themselves still parse.
func TestCSVCountsOutOfInt32Rejected(t *testing.T) {
	for _, row := range []string{
		"0, 4294967297, 0, 0, -4294967296",
		"0, 2147483648, 0, 0, 0",
		"0, 0, -2147483649, 0, 0",
		"0, 0, 0, 9223372036854775807, 0",
	} {
		src := "Index, X, Y, Z, E\n" + row + "\n"
		if r, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) accepted as %+v", row, r.Transactions)
		}
	}
	r, err := ReadCSV(strings.NewReader("Index, X, Y, Z, E\n0, 2147483647, -2147483648, 0, 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Transaction{X: math.MaxInt32, Y: math.MinInt32}
	if r.Len() != 1 || r.Transactions[0] != want {
		t.Errorf("int32 extremes parsed as %+v, want %+v", r.Transactions, want)
	}
}
