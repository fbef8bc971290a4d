package atomicwrite

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteCreatesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	if err := Write(OS, path, writeString("v1")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "v1" {
		t.Fatalf("first write = %q", got)
	}
	if _, err := os.Stat(BakPath(path)); !os.IsNotExist(err) {
		t.Errorf("first write left a backup: %v", err)
	}
	if err := Write(OS, path, writeString("v2")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "v2" {
		t.Fatalf("second write = %q", got)
	}
	if got := readFile(t, BakPath(path)); got != "v1" {
		t.Fatalf("backup = %q, want previous version", got)
	}
	if _, err := os.Stat(TmpPath(path)); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

func TestWriteNilFSDefaultsToOS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	if err := Write(nil, path, writeString("x")); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteCallbackErrorLeavesTargetIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	if err := Write(OS, path, writeString("good")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(OS, path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := readFile(t, path); got != "good" {
		t.Fatalf("target corrupted: %q", got)
	}
	if _, err := os.Stat(TmpPath(path)); !os.IsNotExist(err) {
		t.Errorf("failed write left temp file: %v", err)
	}
}

func TestRecoveryCandidatesOrder(t *testing.T) {
	got := RecoveryCandidates("x")
	want := []string{"x", "x.tmp", "x.bak"}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestDecodeRecordClassifies(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, "TESTREC", 3, "thing", []int{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	kind, payload, err := decodeRecord(good, "TESTREC", 3)
	if err != nil || kind != "thing" {
		t.Fatalf("decodeRecord = (%q, %v), want (thing, nil)", kind, err)
	}
	var got []int
	if err := DecodePayload(payload, &got); err != nil || len(got) != 3 || got[2] != 6 {
		t.Fatalf("DecodePayload = (%v, %v)", got, err)
	}
	if err := DecodePayload(payload, new(string)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload of the wrong type: err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	for name, c := range map[string]struct {
		data    []byte
		magic   string
		version int
	}{
		"wrong magic":   {good, "OTHERREC", 3},
		"wrong version": {good, "TESTREC", 4},
		"checksum":      {flipped, "TESTREC", 3},
		"torn":          {good[:len(good)-2], "TESTREC", 3},
		"empty":         {nil, "TESTREC", 3},
	} {
		if _, _, err := decodeRecord(c.data, c.magic, c.version); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestRecoverWalk pins the walk's one rule over stubbed candidates:
// missing ones are skipped, corrupt ones are counted and skipped, and
// any other error stops the walk.
func TestRecoverWalk(t *testing.T) {
	const path = "rec"
	missing := &os.PathError{Op: "open", Err: os.ErrNotExist}
	bad := fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	ioErr := errors.New("read rec: is a directory")
	cases := []struct {
		name     string
		primary  error
		tmp, bak error
		from     string
		corrupt  int
		wantErr  error // matched with errors.Is; nil means success
	}{
		{name: "primary", from: path},
		{name: "none exist", primary: missing, tmp: missing, bak: missing, wantErr: os.ErrNotExist},
		{name: "tmp outranks bak", primary: missing, from: TmpPath(path)},
		{name: "corrupt primary", primary: bad, tmp: missing, from: BakPath(path), corrupt: 1},
		{name: "all corrupt", primary: bad, tmp: missing, bak: bad, corrupt: 2, wantErr: ErrCorrupt},
		{name: "io error stops", primary: ioErr, wantErr: ioErr},
		{name: "io error after corrupt", primary: bad, tmp: ioErr, corrupt: 1, wantErr: ioErr},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			results := map[string]error{path: c.primary, TmpPath(path): c.tmp, BakPath(path): c.bak}
			var tried []string
			from, corrupt, err := Recover(path, func(p string) error {
				tried = append(tried, p)
				return results[p]
			})
			if from != c.from || corrupt != c.corrupt {
				t.Errorf("Recover = (%q, %d), want (%q, %d)", from, corrupt, c.from, c.corrupt)
			}
			switch {
			case c.wantErr == nil && err != nil:
				t.Errorf("err = %v, want success", err)
			case c.wantErr != nil && !errors.Is(err, c.wantErr):
				t.Errorf("err = %v, want %v", err, c.wantErr)
			}
			if errors.Is(c.wantErr, os.ErrNotExist) && !os.IsNotExist(err) {
				t.Errorf("os.IsNotExist(%v) = false", err)
			}
			if c.wantErr == ioErr && tried[len(tried)-1] == BakPath(path) {
				t.Errorf("walk went on past an I/O error: tried %v", tried)
			}
		})
	}
}
