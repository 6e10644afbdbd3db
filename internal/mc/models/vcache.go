package models

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"entangle/internal/egraph"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/mc"
	"entangle/internal/vcache"
)

// VCacheConfig bounds one verdict-cache model.
type VCacheConfig struct {
	Name string
	// Keys is the number of distinct cache keys (content addresses).
	Keys int
	// Writers is the number of concurrent Put writers. Writer w targets
	// key w % Keys with entry version w / Keys, so writers on the same
	// key race distinct contents — the interesting case.
	Writers int
	// MaxCorruptions bounds how many damage events the disk adversary
	// may inject; each picks any faultinject.CacheFault mode.
	MaxCorruptions int
}

// VCache models the verdict cache's on-disk protocol: concurrent
// writers doing the temp-file + atomic-rename dance, crashes in the
// window between the two, and an adversary damaging committed files in
// every faultinject mode. The twist that makes it more than a toy: the
// model materializes REAL bytes. Every committed file is produced by
// vcache.EncodeEntry, every damaged variant by faultinject.Damage, and
// the reader invariant runs vcache.DecodeEntry — the production read
// path — over those bytes at every reachable state. "A decode error is
// always a miss, never a wrong verdict" is checked against the shipped
// codec, not a model of it.
//
// Readers need no actions: renames are atomic and a read is a
// snapshot, so a reader in any reachable state sees exactly that
// state's disk. Checking the invariant at every state IS the
// exhaustive reader.
type VCache struct {
	cfg   VCacheConfig
	keys  []fingerprint.Hash
	modes []faultinject.CacheFault
	// entries[k][v] is version v of key k's entry; clean[k][v] its
	// exact on-disk bytes; damaged[k][v][m] those bytes under mode m.
	entries [][]*vcache.Entry
	clean   [][][]byte
	damaged [][][][]byte
	// writerKey/writerVer assign each writer its (key, version).
	writerKey []int
	writerVer []int
}

// NewVCache precomputes every byte string the model can place on disk.
func NewVCache(cfg VCacheConfig) (*VCache, error) {
	if cfg.Keys <= 0 || cfg.Writers <= 0 {
		return nil, fmt.Errorf("models: vcache needs at least one key and one writer")
	}
	m := &VCache{cfg: cfg, modes: faultinject.CacheFaults()}
	versions := (cfg.Writers + cfg.Keys - 1) / cfg.Keys
	for k := 0; k < cfg.Keys; k++ {
		key := fingerprint.Hash(sha256.Sum256([]byte(fmt.Sprintf("mc-vcache-key-%d", k))))
		m.keys = append(m.keys, key)
		var entries []*vcache.Entry
		var clean [][]byte
		var damaged [][][]byte
		for v := 0; v < versions; v++ {
			e := entryVersion(key, k, v)
			data, err := vcache.EncodeEntry(key, e)
			if err != nil {
				return nil, err
			}
			var dam [][]byte
			for _, mode := range m.modes {
				dam = append(dam, faultinject.Damage(data, mode))
			}
			entries = append(entries, e)
			clean = append(clean, data)
			damaged = append(damaged, dam)
		}
		m.entries = append(m.entries, entries)
		m.clean = append(m.clean, clean)
		m.damaged = append(m.damaged, damaged)
	}
	for w := 0; w < cfg.Writers; w++ {
		m.writerKey = append(m.writerKey, w%cfg.Keys)
		m.writerVer = append(m.writerVer, w/cfg.Keys)
	}
	return m, nil
}

// entryVersion fabricates distinct cacheable entries: even versions
// refined with an output mapping, odd versions disproved.
func entryVersion(key fingerprint.Hash, k, v int) *vcache.Entry {
	if v%2 == 1 {
		return vcache.Disproved(key, v, egraph.Stats{}, k)
	}
	return vcache.Refined(key, v, egraph.Stats{}, [][]string{{fmt.Sprintf("t%d_%d", k, v)}})
}

// Writer program counters.
const (
	wrStart int8 = iota // entry encoded, temp file not yet written
	wrTemp              // temp file written, rename pending (crash window)
	wrDone              // renamed or crashed
)

// vcState is one disk + writers state. Temp files are deliberately NOT
// part of the state: they live under dot-prefixed names the reader
// never opens, so until the rename they are unobservable — modelling
// them would square the state space for no observable difference.
type vcState struct {
	m *VCache
	// disk[k]: version on disk (-1 absent) and damage mode (-1 clean).
	diskVer     []int8
	diskDamage  []int8
	writers     []int8
	renamed     []bool
	corruptions int8
}

func (s *vcState) clone() *vcState {
	return &vcState{
		m:           s.m,
		diskVer:     append([]int8(nil), s.diskVer...),
		diskDamage:  append([]int8(nil), s.diskDamage...),
		writers:     append([]int8(nil), s.writers...),
		renamed:     append([]bool(nil), s.renamed...),
		corruptions: s.corruptions,
	}
}

func (s *vcState) Key() string {
	b := make([]byte, 0, 32)
	for k := range s.diskVer {
		b = strconv.AppendInt(b, int64(s.diskVer[k]), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(s.diskDamage[k]), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for w := range s.writers {
		b = strconv.AppendInt(b, int64(s.writers[w]), 10)
		if s.renamed[w] {
			b = append(b, '!')
		}
	}
	b = append(b, '|')
	return string(strconv.AppendInt(b, int64(s.corruptions), 10))
}

func (s *vcState) String() string {
	var b strings.Builder
	b.WriteString("disk=[")
	for k := range s.diskVer {
		if k > 0 {
			b.WriteByte(' ')
		}
		if s.diskVer[k] < 0 {
			b.WriteString("·")
			continue
		}
		fmt.Fprintf(&b, "v%d", s.diskVer[k])
		if d := s.diskDamage[k]; d >= 0 {
			fmt.Fprintf(&b, "(%s)", s.m.modes[d])
		}
	}
	b.WriteString("] writers=[")
	for w, pc := range s.writers {
		if w > 0 {
			b.WriteByte(' ')
		}
		switch pc {
		case wrStart:
			b.WriteString("start")
		case wrTemp:
			b.WriteString("temp")
		case wrDone:
			if s.renamed[w] {
				b.WriteString("renamed")
			} else {
				b.WriteString("crashed")
			}
		}
	}
	fmt.Fprintf(&b, "] corruptions=%d", s.corruptions)
	return b.String()
}

func (m *VCache) Name() string { return m.cfg.Name }

func (m *VCache) Init() []mc.State {
	s := &vcState{
		m:          m,
		diskVer:    make([]int8, m.cfg.Keys),
		diskDamage: make([]int8, m.cfg.Keys),
		writers:    make([]int8, m.cfg.Writers),
		renamed:    make([]bool, m.cfg.Writers),
	}
	for k := range s.diskVer {
		s.diskVer[k], s.diskDamage[k] = -1, -1
	}
	return []mc.State{s}
}

func (m *VCache) Actions(st mc.State) []mc.Action {
	s := st.(*vcState)
	var acts []mc.Action
	for w := range s.writers {
		w := w
		switch s.writers[w] {
		case wrStart:
			acts = append(acts, mc.Action{Name: fmt.Sprintf("w%d/write-temp", w), Next: func() mc.State {
				n := s.clone()
				n.writers[w] = wrTemp
				return n
			}})
		case wrTemp:
			acts = append(acts, mc.Action{Name: fmt.Sprintf("w%d/rename", w), Next: func() mc.State {
				// The atomic commit: whatever was under the final name —
				// nothing, an older version, or a damaged file — is
				// replaced wholesale by this writer's clean bytes.
				n := s.clone()
				k := m.writerKey[w]
				n.diskVer[k] = int8(m.writerVer[w])
				n.diskDamage[k] = -1
				n.writers[w] = wrDone
				n.renamed[w] = true
				return n
			}})
			acts = append(acts, mc.Action{Name: fmt.Sprintf("w%d/crash", w), Next: func() mc.State {
				// Crash in the window between temp write and rename: the
				// temp file is litter the reader never opens; the
				// committed file, if any, is untouched.
				n := s.clone()
				n.writers[w] = wrDone
				return n
			}})
		}
	}
	if int(s.corruptions) < m.cfg.MaxCorruptions {
		for k := range s.diskVer {
			k := k
			if s.diskVer[k] < 0 || s.diskDamage[k] >= 0 {
				continue
			}
			for mi, mode := range m.modes {
				mi := mi
				acts = append(acts, mc.Action{Name: fmt.Sprintf("corrupt/k%d/%s", k, mode), Next: func() mc.State {
					n := s.clone()
					n.diskDamage[k] = int8(mi)
					n.corruptions++
					return n
				}})
			}
		}
	}
	return acts
}

// Terminal: all writers finished. (Corruption actions may still be
// enabled in such states; Terminal is only consulted when nothing is.)
func (m *VCache) Terminal(st mc.State) bool {
	for _, pc := range st.(*vcState).writers {
		if pc != wrDone {
			return false
		}
	}
	return true
}

func (m *VCache) Invariants() []mc.Invariant {
	return []mc.Invariant{
		// The central property, checked with the production decoder at
		// every reachable disk state: an undamaged committed file decodes
		// to exactly the entry that was Put (byte-identical re-encoding),
		// and EVERY damage mode is detected as an error — a miss, never a
		// wrong verdict.
		{Name: "decode-error-is-a-miss-never-a-wrong-verdict", Check: func(st mc.State) error {
			s := st.(*vcState)
			for k := range s.diskVer {
				v := s.diskVer[k]
				if v < 0 {
					continue
				}
				data := m.clean[k][v]
				if d := s.diskDamage[k]; d >= 0 {
					data = m.damaged[k][v][d]
					if _, err := vcache.DecodeEntry(m.keys[k], data); err == nil {
						return fmt.Errorf("key %d damaged with %s but DecodeEntry succeeded", k, m.modes[d])
					}
					continue
				}
				e, err := vcache.DecodeEntry(m.keys[k], data)
				if err != nil {
					return fmt.Errorf("key %d committed clean but DecodeEntry failed: %v", k, err)
				}
				re, err := vcache.EncodeEntry(m.keys[k], e)
				if err != nil {
					return fmt.Errorf("key %d round-trip re-encode failed: %v", k, err)
				}
				if !bytes.Equal(re, data) {
					return fmt.Errorf("key %d decoded to a different entry than was committed", k)
				}
			}
			return nil
		}},
		// Once any writer's rename returned, its key always holds SOME
		// committed version: atomic replacement can never leave the slot
		// empty, so no committed verdict is ever lost to a crash or a
		// racing writer.
		{Name: "no-committed-verdict-lost", Check: func(st mc.State) error {
			s := st.(*vcState)
			for w, ren := range s.renamed {
				if ren && s.diskVer[m.writerKey[w]] < 0 {
					return fmt.Errorf("writer %d committed but key %d is absent", w, m.writerKey[w])
				}
			}
			return nil
		}},
	}
}
