package mapd

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"sanmap/internal/textrec"
	"sanmap/internal/topology"
)

// ErrFenced is returned by Store.Commit when the epoch's parent is no
// longer the latest committed epoch: some other job (a newer mapper, or a
// faster resumed one) committed first. The losing job must discard its
// result — its job file is stale — and, if it still wants to heal, start a
// new job from the winner's epoch.
var ErrFenced = errors.New("mapd: commit fenced: parent is not the latest epoch")

// ErrBadEpoch wraps any parse or checksum failure on an epoch file.
var ErrBadEpoch = errors.New("mapd: bad epoch file")

// EpochMeta is the header of a committed epoch.
type EpochMeta struct {
	Number uint64 // 1-based, dense: Number == Parent+1
	Parent uint64 // 0 for the initial map
	Job    uint64 // the job that committed this epoch (fencing token)
	// Resumed records that the committing job continued from its job file
	// after a crash rather than from its start.
	Resumed bool
	// VClock is the virtual clock at commit time (in a job file, at the
	// job's newest step). A session restored from this file continues the
	// clock from here, so a restarted process logs the timestamps an
	// uninterrupted one would.
	VClock time.Duration
	// Probes is the probe spend of the committing job's final process
	// segment (a resumed job counts only post-resume probes).
	Probes int64
	// Confidence, Partial, Suspects and SuspectIDs mirror the
	// mapper.Result fields the degradation ladder keys on.
	Confidence float64
	Partial    bool
	Suspects   []string
	SuspectIDs []topology.NodeID
}

// Epoch is one committed map: metadata plus the serialized network (the
// topology file format) and the mapper session checkpoint that produced
// it, from which the next remap resumes.
type Epoch struct {
	EpochMeta
	NetText    []byte
	Checkpoint []byte
}

// Store is the on-disk epoch sequence: dir/epoch-%06d.san files, each
// fully checksummed and committed by the store's one durable write, so a
// crash never leaves a torn epoch — only a missing one, which the
// in-flight job's file covers.
type Store struct {
	dir     string
	epochs  []*Epoch   // valid epochs, ascending by number
	corrupt int        // files that failed checksum or parse at Open
	crash   *crashHook // nil outside a daemon run with -crash-after
}

// OpenStore opens (creating if necessary) the epoch store in dir and
// loads every valid epoch. Corrupt files are skipped, not deleted: the
// daemon serves from the newest valid epoch and recovery re-derives the
// rest.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("mapd: state dir: %w", err)
	}
	st := &Store{dir: dir}
	paths, err := filepath.Glob(filepath.Join(dir, "epoch-*.san"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		ep, err := parseEpoch(data)
		if err != nil {
			st.corrupt++
			continue
		}
		st.epochs = append(st.epochs, ep)
	}
	sort.Slice(st.epochs, func(i, j int) bool {
		return st.epochs[i].Number < st.epochs[j].Number
	})
	return st, nil
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

// Corrupt reports how many epoch files failed validation at open.
func (st *Store) Corrupt() int { return st.corrupt }

// Latest returns the newest valid epoch, or nil if none committed yet.
func (st *Store) Latest() *Epoch {
	if len(st.epochs) == 0 {
		return nil
	}
	return st.epochs[len(st.epochs)-1]
}

// Epochs returns the valid epochs in ascending order.
func (st *Store) Epochs() []*Epoch { return st.epochs }

// NextJobID returns a job ID strictly greater than every job recorded in
// any epoch or job file in the store — the fencing token for a new map or
// remap job. Derived from disk, not a clock, so it is deterministic and
// survives restarts.
func (st *Store) NextJobID() uint64 {
	var id uint64
	for _, ep := range st.epochs {
		id = max(id, ep.Job)
	}
	for _, p := range st.jobFiles() {
		id = max(id, fileNumber(p, "job-"))
	}
	return id + 1
}

// Commit durably writes ep as the next epoch. The fencing rule: ep.Parent
// must equal the latest committed epoch number (0 when the store is
// empty), checked against the directory, not just memory, so a stale
// resumed mapper that lost the race gets ErrFenced instead of clobbering
// the winner.
func (st *Store) Commit(ep *Epoch) error {
	latest := st.diskLatest()
	if ep.Parent != latest {
		return fmt.Errorf("%w (parent %d, latest %d)", ErrFenced, ep.Parent, latest)
	}
	if ep.Number != ep.Parent+1 {
		return fmt.Errorf("mapd: epoch %d must be parent %d + 1", ep.Number, ep.Parent)
	}
	if err := st.write(fmt.Sprintf("epoch-%06d.san", ep.Number), encodeEpoch(ep)); err != nil {
		return err
	}
	st.epochs = append(st.epochs, ep)
	return nil
}

// write is the store's one durable write: data goes to name.tmp, which is
// fsynced and renamed over name, and then the directory is fsynced so the
// rename itself survives power loss. Epoch commits and job-file steps both
// come through here, and each then gives the crash hook its chance.
func (st *Store) write(name string, data []byte) error {
	final := filepath.Join(st.dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err == nil {
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("mapd: write %s: %w", name, err)
	}
	dir, err := os.Open(st.dir)
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		return fmt.Errorf("mapd: sync %s: %w", st.dir, err)
	}
	st.crash.note()
	return nil
}

// diskLatest returns the highest epoch number on disk that validates. This
// is the fencing ground truth; the in-memory slice can be behind when a
// concurrent (stale, resumed) process raced us. A file that fails
// parseEpoch does not count, so the next commit replaces it.
func (st *Store) diskLatest() uint64 {
	var latest uint64
	if ep := st.Latest(); ep != nil {
		latest = ep.Number
	}
	paths, _ := filepath.Glob(filepath.Join(st.dir, "epoch-*.san"))
	for _, p := range paths {
		if n := fileNumber(p, "epoch-"); n > latest {
			if data, err := os.ReadFile(p); err == nil {
				if ep, err := parseEpoch(data); err == nil && ep.Number == n {
					latest = n
				}
			}
		}
	}
	return latest
}

// fileNumber parses n out of dir/<prefix><n>.san, or returns 0.
func fileNumber(path, prefix string) uint64 {
	s, _ := strings.CutPrefix(filepath.Base(path), prefix)
	n, _ := strconv.ParseUint(strings.TrimSuffix(s, ".san"), 10, 64)
	return n
}

const epochMagic = "sanmapd-epoch 1"

// encodeEpoch renders the epoch file: a text header, the two raw
// sections with byte-length framing, and a trailing CRC-32 (IEEE) over
// everything before the crc line. The buffer is sized for both sections
// up front, so each of their bytes is copied once.
func encodeEpoch(ep *Epoch) []byte {
	b := make([]byte, 0, 512+len(ep.NetText)+len(ep.Checkpoint))
	b = append(b, epochMagic+"\n"...)
	b = append(textrec.AppendUint(b, "epoch", ep.Number), '\n')
	b = append(textrec.AppendUint(b, "parent", ep.Parent), '\n')
	b = append(textrec.AppendUint(b, "job", ep.Job), '\n')
	b = append(textrec.AppendInts(b, "resumed", textrec.Flag(ep.Resumed)), '\n')
	b = append(textrec.AppendInts(b, "vclock", int(ep.VClock)), '\n')
	b = append(textrec.AppendInts(b, "probes", int(ep.Probes)), '\n')
	b = append(strconv.AppendFloat(append(b, "confidence "...), ep.Confidence, 'g', -1, 64), '\n')
	b = append(textrec.AppendInts(b, "partial", textrec.Flag(ep.Partial)), '\n')
	b = append(textrec.AppendInts(b, "suspects", len(ep.Suspects)), '\n')
	for _, s := range ep.Suspects {
		b = append(textrec.AppendQuoted(append(b, "suspect"...), s), '\n')
	}
	b = textrec.AppendInts(b, "suspect-ids", len(ep.SuspectIDs))
	for _, id := range ep.SuspectIDs {
		b = textrec.AppendInts(b, "", int(id))
	}
	b = append(textrec.AppendInts(append(b, '\n'), "network", len(ep.NetText)), '\n')
	b = append(b, ep.NetText...)
	b = append(textrec.AppendInts(b, "checkpoint", len(ep.Checkpoint)), '\n')
	b = append(b, ep.Checkpoint...)
	return fmt.Appendf(b, "crc %08x\n", crc32.ChecksumIEEE(b))
}

// parseEpoch validates the checksum and decodes one epoch file. The two
// sections alias data.
func parseEpoch(data []byte) (*Epoch, error) {
	i := bytes.LastIndex(data, []byte("\ncrc ")) + 1
	body, trailer := data[:i], data[i:]
	if want := fmt.Appendf(nil, "crc %08x\n", crc32.ChecksumIEEE(body)); !bytes.Equal(trailer, want) {
		return nil, fmt.Errorf("%w: line %d: crc trailer %q, want %q",
			ErrBadEpoch, bytes.Count(body, []byte{'\n'})+1, trailer, want)
	}
	r := textrec.NewReader(body, ErrBadEpoch)
	num := func(key string) uint64 {
		r.Next(key)
		v := r.Uint()
		r.Done()
		return v
	}
	r.Expect(epochMagic)
	ep := &Epoch{}
	ep.Number, ep.Parent = num("epoch"), num("parent")
	if ep.Number == 0 || ep.Number != ep.Parent+1 {
		r.Failf("epoch %d with parent %d", ep.Number, ep.Parent)
	}
	ep.Job = num("job")
	ep.Resumed = num("resumed") != 0
	ep.VClock = time.Duration(r.Ints("vclock", 1)[0])
	ep.Probes = int64(r.Ints("probes", 1)[0])
	r.Next("confidence")
	ep.Confidence = r.Float()
	r.Done()
	ep.Partial = num("partial") != 0
	for n := r.Count("suspects"); n > 0 && r.Err() == nil; n-- {
		r.Next("suspect")
		ep.Suspects = append(ep.Suspects, r.Quoted())
		r.Done()
	}
	if ids := r.Ints("suspect-ids", -1); len(ids) == 0 || ids[0] != len(ids)-1 {
		r.Failf("suspect-ids record: want a count and as many ids")
	} else {
		for _, id := range ids[1:] {
			ep.SuspectIDs = append(ep.SuspectIDs, topology.NodeID(id))
		}
	}
	ep.NetText = r.Section("network")
	ep.Checkpoint = r.Section("checkpoint")
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ep, nil
}
