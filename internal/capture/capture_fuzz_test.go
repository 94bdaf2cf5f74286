package capture

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary text to ReadCSV. It must never panic, and
// any input it accepts must round-trip: WriteCSV of the parsed recording
// reads back to equal transactions.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"Index, X, Y, Z, E\n0, 4294967297, 0, 0, -4294967296\n", // once truncated to X=1, E=0
		"Index, X, Y, Z, E\n5113, 6060, 8266, 960, 52843\n5114, 6304, 8095, 960, 52856\n",
		"Index, X, Y, Z, E\n0, 2147483647, -2147483648, 0, 0\n",
		"Index, X, Y, Z, E\n4294967295, 1, 2, 3, 4\n",
		"Index, X, Y, Z, E\n0, 1, 2, 3, 4\n\n1, 2, 3, 4, 5\n",
		"INDEX,X,Y,Z,E\r\n0,+1,-2,3,4\r\n",
		"Index, X, Y, Z, E\n0, 1, 1, 1, 1\n5, 1, 1, 1, 1\n",
		"Index, X, Y, Z, E\n-1, 2, 3, 4, 5\n",
		"bogus header\n1, 2, 3, 4, 5\n",
		"Index, X, Y, Z, Extra, More\n0, 1, 2, 3, 4\n",
		"Index, X, Y, Z, E\n4294967295, 1, 2, 3, 4\n0, 1, 2, 3, 4\n",
		"\n0, 1, 2, 3, 4\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rec, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted recording: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV rejected WriteCSV's output %q: %v", buf.String(), err)
		}
		if !slices.Equal(rec.Transactions, back.Transactions) {
			t.Fatalf("round trip changed the transactions:\n got %+v\nwant %+v", back.Transactions, rec.Transactions)
		}
	})
}
