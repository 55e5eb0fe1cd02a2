package calibration

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzLoadGrid feeds the grid-file decoder arbitrary bytes. LoadGrid must
// never panic, and every grid it accepts must re-encode stably: SaveJSON,
// LoadGrid of those bytes and SaveJSON again give the same bytes.
func FuzzLoadGrid(f *testing.F) {
	axis := []float64{0.5, 1}
	g, err := SyntheticGrid(axis, axis)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := g.SaveJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(version1File(f)))
	f.Add(bytes.Replace(valid.Bytes(), []byte(`"checksum": "`), []byte(`"checksum": "0`), 1))
	outOfRange := checkpointJSON{Version: checkpointVersion, CPUs: axis, IOs: axis, Memory: syntheticMemory,
		Points: []checkpointPoint{{Idx: 0, Params: syntheticParams(0.5, 0.5)}, {Idx: 7, Params: syntheticParams(1, 1)}}}
	if outOfRange.Checksum, err = outOfRange.checksum(); err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(outOfRange)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := g.SaveJSON(&first); err != nil {
			t.Fatalf("SaveJSON of an accepted grid: %v", err)
		}
		again, err := LoadGrid(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("LoadGrid of SaveJSON's own output: %v\n%s", err, first.String())
		}
		if err := again.SaveJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding moved:\n%s\nthen\n%s", first.String(), second.String())
		}
	})
}
