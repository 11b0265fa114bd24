package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/hfmin"
	"repro/internal/logic"
)

// Two formats live here. The persistent layer stores one file per cached
// value, named by the hex of its key hash and holding the salted blob
// envelope (blobRec) around the value's codec payload, written
// temp-then-rename. The disk files, the remote tier's wire payloads and
// Export all use that envelope, and every consumer re-validates it.
//
// Inside the envelope, hfmin outcomes use the record format below.
// Cubes are serialized as their raw positional bit masks (logic.Cube.Raw),
// so a loaded Result is bit-identical to the computed one. Records are
// strictly validated on load — wrong salt, malformed JSON, out-of-range
// masks, arity mismatches — and any defect demotes the lookup to a miss;
// the cache can cost a recompute but never an incorrect result.

type cubeRec struct {
	Z uint64 `json:"z"`
	O uint64 `json:"o"`
}

type privRec struct {
	Trans cubeRec `json:"trans"`
	Need  cubeRec `json:"need"`
}

type fileRec struct {
	Salt       string    `json:"salt"`
	N          int       `json:"n"`
	Infeasible bool      `json:"infeasible,omitempty"`
	Err        string    `json:"err,omitempty"`
	Exact      bool      `json:"exact,omitempty"`
	Cover      []cubeRec `json:"cover,omitempty"`
	OnSet      []cubeRec `json:"on,omitempty"`
	OffSet     []cubeRec `json:"off,omitempty"`
	Required   []cubeRec `json:"required,omitempty"`
	Privileged []privRec `json:"privileged,omitempty"`
	Primes     []cubeRec `json:"primes,omitempty"`
}

// infeasibleErr reconstructs a persisted hfmin.ErrInfeasible outcome with
// its original message, so errors.Is and error text behave exactly as on
// the compute path.
type infeasibleErr struct{ msg string }

func (e *infeasibleErr) Error() string { return e.msg }
func (e *infeasibleErr) Unwrap() error { return hfmin.ErrInfeasible }

// recordCodec is the BlobCodec of Cache's outcome values. Only clean
// results and infeasibility verdicts encode; Cache never stores anything
// else.
type recordCodec struct{}

func (recordCodec) Encode(v any) ([]byte, bool) {
	o := v.(outcome)
	res := o.res
	// Analyze populates the care sets before minimize can fail, so the
	// arity lives on OnSet even when Cover was never built (infeasible
	// outcomes carry the zero Cover, which decodeResult reproduces).
	rec := fileRec{
		Salt:     Salt,
		N:        res.OnSet.N,
		Exact:    res.Exact,
		Cover:    encCubes(res.Cover.Cubes),
		OnSet:    encCubes(res.OnSet.Cubes),
		OffSet:   encCubes(res.OffSet.Cubes),
		Required: encCubes(res.Required),
		Primes:   encCubes(res.Primes),
	}
	for _, pv := range res.Privileged {
		rec.Privileged = append(rec.Privileged, privRec{Trans: encCube(pv.Trans), Need: encCube(pv.Need)})
	}
	if o.err != nil {
		rec.Infeasible = true
		rec.Err = o.err.Error()
	}
	data, err := json.Marshal(rec)
	return data, err == nil
}

// Decode strictly validates a record; ok is false on any defect —
// malformed JSON, a foreign salt, out-of-range masks — never an error
// result: a bad record is a miss.
func (recordCodec) Decode(data []byte) (any, bool) {
	var rec fileRec
	if json.Unmarshal(data, &rec) != nil || rec.Salt != Salt {
		return nil, false
	}
	res, err := decodeResult(rec)
	if err != nil {
		return nil, false
	}
	o := outcome{res: res}
	if rec.Infeasible {
		o.err = &infeasibleErr{msg: rec.Err}
	}
	return o, true
}

func (s *Store) blobPath(key [sha256.Size]byte) string {
	return filepath.Join(s.dir, hex.EncodeToString(key[:])+".json")
}

// decodeBlob validates the envelope (salt, well-formed JSON, no trailing
// data) and hands the payload to the codec; any defect is a miss.
func decodeBlob(data []byte, codec BlobCodec) (any, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rec blobRec
	if dec.Decode(&rec) != nil || dec.More() || rec.Salt != StoreSalt {
		return nil, false
	}
	return codec.Decode(rec.Data)
}

// loadDisk retrieves a persisted value; ok is false on any miss,
// staleness or corruption.
func (s *Store) loadDisk(key [sha256.Size]byte, codec BlobCodec) (any, []byte, bool) {
	if s.dir == "" {
		return nil, nil, false
	}
	data, err := os.ReadFile(s.blobPath(key))
	if err != nil {
		return nil, nil, false
	}
	v, ok := decodeBlob(data, codec)
	if !ok {
		return nil, nil, false
	}
	return v, data, true
}

// writeDisk persists an encoded envelope; failures are ignored (the cache
// is an accelerator, not a store of record). Write-then-rename keeps
// concurrent runs sharing a directory from observing torn files.
func (s *Store) writeDisk(key [sha256.Size]byte, data []byte) {
	if s.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(s.dir, s.prefix+"-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), s.blobPath(key)) != nil {
		os.Remove(tmp.Name())
		return
	}
	s.cap.wrote(len(data))
}

func decodeResult(rec fileRec) (hfmin.Result, error) {
	res := hfmin.Result{Exact: rec.Exact}
	var err error
	if !rec.Infeasible {
		if res.Cover, err = decCover(rec.Cover, rec.N); err != nil {
			return res, err
		}
	}
	if res.OnSet, err = decCover(rec.OnSet, rec.N); err != nil {
		return res, err
	}
	if res.OffSet, err = decCover(rec.OffSet, rec.N); err != nil {
		return res, err
	}
	if res.Required, err = decCubes(rec.Required, rec.N); err != nil {
		return res, err
	}
	if res.Primes, err = decCubes(rec.Primes, rec.N); err != nil {
		return res, err
	}
	for _, pv := range rec.Privileged {
		tr, terr := decCube(pv.Trans, rec.N)
		if terr != nil {
			return res, terr
		}
		need, nerr := decCube(pv.Need, rec.N)
		if nerr != nil {
			return res, nerr
		}
		res.Privileged = append(res.Privileged, hfmin.Privileged{Trans: tr, Need: need})
	}
	return res, nil
}

func encCube(c logic.Cube) cubeRec {
	z, o := c.Raw()
	return cubeRec{Z: z, O: o}
}

func encCubes(cs []logic.Cube) []cubeRec {
	if len(cs) == 0 {
		return nil
	}
	out := make([]cubeRec, len(cs))
	for i, c := range cs {
		out[i] = encCube(c)
	}
	return out
}

func decCube(r cubeRec, n int) (logic.Cube, error) {
	return logic.RawCube(r.Z, r.O, n)
}

// decCubes preserves nil-ness: an absent list decodes to a nil slice, so a
// loaded Result is reflect.DeepEqual to the computed one.
func decCubes(rs []cubeRec, n int) ([]logic.Cube, error) {
	if len(rs) == 0 {
		return nil, nil
	}
	out := make([]logic.Cube, len(rs))
	for i, r := range rs {
		c, err := decCube(r, n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func decCover(rs []cubeRec, n int) (logic.Cover, error) {
	cubes, err := decCubes(rs, n)
	if err != nil {
		return logic.Cover{}, err
	}
	return logic.Cover{N: n, Cubes: cubes}, nil
}
