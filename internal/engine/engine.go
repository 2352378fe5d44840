// Package engine implements the DAOS I/O engine: the server process that
// owns a set of VOS targets backed by an interleaved DCPMM region and serves
// object RPCs over the fabric.
//
// Timing model (the knobs that shape the paper's curves):
//
//   - Each target has one service xstream (a sim.Resource of capacity 1, as
//     in DAOS's per-target main xstream). An RPC holds the xstream for its
//     CPU cost and its media transfer, so a hot target queues requests —
//     this is what makes object-class load imbalance visible.
//   - Every RPC pays RPCCost of xstream CPU, plus PerExtentCost for each
//     extent it touches in the VOS trees.
//   - The first write that creates an object shard on a target pays
//     FirstTouchCost (VOS object + dkey tree initialisation on persistent
//     memory). Wide classes (SX) create a shard on every target per file,
//     which is the dominant penalty for SX at low client counts.
//   - Media bytes are charged to the engine's DCPMM device, fair-shared
//     across that engine's targets, with DCPMM's read/write asymmetry.
package engine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"daosim/internal/fabric"
	"daosim/internal/media"
	"daosim/internal/sim"
	"daosim/internal/vos"
)

// Costs collects the engine-side software path constants.
type Costs struct {
	// RPCCost is the xstream CPU charge per RPC (request parsing, bulk
	// handling, reply).
	RPCCost time.Duration
	// PerExtentCost is the VOS tree charge per extent read or written.
	PerExtentCost time.Duration
	// FirstTouchCost is the charge for materialising an object shard
	// (object table insert, dkey tree allocation) on first write.
	FirstTouchCost time.Duration
}

// DefaultCosts returns the calibrated engine cost model.
func DefaultCosts() Costs {
	return Costs{
		RPCCost:        20 * time.Microsecond,
		PerExtentCost:  10 * time.Microsecond,
		FirstTouchCost: 120 * time.Microsecond,
	}
}

// Config describes one engine.
type Config struct {
	// ID is the global engine index.
	ID int
	// Targets is the number of VOS targets (per-engine service threads).
	Targets int
	// Media is the engine's storage device parameters (one AppDirect
	// interleave set per engine/socket on NEXTGenIO).
	Media media.Params
	// Bulk optionally adds an NVMe bulk tier. When set, array values of
	// BulkThreshold bytes or more land on NVMe while small values and all
	// metadata stay on SCM — DAOS's standard two-tier policy. The paper's
	// testbed ran SCM-only, so the NEXTGenIO cluster config leaves this
	// nil; the tiering tests exercise it.
	Bulk *media.Params
	// BulkThreshold is the minimum array value size routed to NVMe
	// (DAOS defaults to 4 KiB). Zero means 4 KiB.
	BulkThreshold int64
	Costs         Costs
}

// Engine is a running DAOS I/O engine.
type Engine struct {
	cfg     Config
	sim     *sim.Sim
	node    *fabric.Node
	device  *media.Device
	bulk    *media.Device // nil without an NVMe tier
	targets []*target
	epoch   vos.Epoch
	down    bool

	// RPCs counts object RPCs served.
	RPCs int64
	// clientWrBytes and clientRdBytes count client payload bytes moved by
	// the update and fetch handlers. Rebuild traffic writes to devices
	// directly and never increments them, so the pair isolates client
	// bandwidth for degraded-window measurement.
	clientWrBytes int64
	clientRdBytes int64
}

// target is one VOS target: an xstream plus per-container VOS stores.
type target struct {
	id      int // global target ID
	xstream *sim.Resource
	conts   map[string]*vos.Container
}

// ServiceName returns the fabric service name of engine id's object service.
func ServiceName(id int) string { return fmt.Sprintf("obj@e%d", id) }

// New creates an engine, attaches its device, and registers its RPC service
// on the given fabric node (engines on the same server node share the NIC).
func New(s *sim.Sim, node *fabric.Node, cfg Config) *Engine {
	if cfg.Targets <= 0 {
		panic("engine: target count must be positive")
	}
	e := &Engine{
		cfg:    cfg,
		sim:    s,
		node:   node,
		device: media.NewDevice(s, cfg.Media),
	}
	if cfg.Bulk != nil {
		e.bulk = media.NewDevice(s, *cfg.Bulk)
		if e.cfg.BulkThreshold <= 0 {
			e.cfg.BulkThreshold = 4 << 10
		}
	}
	for t := 0; t < cfg.Targets; t++ {
		e.targets = append(e.targets, &target{
			id:      cfg.ID*cfg.Targets + t,
			xstream: sim.NewResource(s, fmt.Sprintf("e%d/xs%d", cfg.ID, t), 1),
			conts:   make(map[string]*vos.Container),
		})
	}
	node.Register(ServiceName(cfg.ID), e.handle)
	return e
}

// ID returns the engine's global index.
func (e *Engine) ID() int { return e.cfg.ID }

// Node returns the fabric node hosting this engine.
func (e *Engine) Node() *fabric.Node { return e.node }

// Device returns the engine's SCM media device (for reporting).
func (e *Engine) Device() *media.Device { return e.device }

// BulkDevice returns the NVMe bulk device, or nil without a bulk tier.
func (e *Engine) BulkDevice() *media.Device { return e.bulk }

// tierSplit divides an update's bytes between SCM and the bulk tier: array
// values at or above the threshold go to NVMe, everything else (small
// values, single-value metadata) stays on persistent memory.
func (e *Engine) tierSplit(writes []WriteExt) (scm, bulk int64) {
	for _, w := range writes {
		n := w.size()
		if e.bulk != nil && !w.Single && n >= e.cfg.BulkThreshold {
			bulk += n
		} else {
			scm += n
		}
	}
	return scm, bulk
}

// SetDown marks the engine failed (failure injection); RPCs return
// ErrEngineDown until it is cleared.
func (e *Engine) SetDown(down bool) { e.down = down }

// IsDown reports whether the engine is currently failed.
func (e *Engine) IsDown() bool { return e.down }

// ClientBytes returns the client payload bytes (update + fetch) this
// engine's RPC handlers have served.
func (e *Engine) ClientBytes() int64 { return e.clientWrBytes + e.clientRdBytes }

// ErrEngineDown reports an RPC against a failed engine.
var ErrEngineDown = errors.New("engine: down")

// nextEpoch returns a monotonic epoch derived from virtual time, mirroring
// DAOS's HLC timestamps.
func (e *Engine) nextEpoch() vos.Epoch {
	now := vos.Epoch(e.sim.Now().Nanoseconds())
	if now <= e.epoch {
		now = e.epoch + 1
	}
	e.epoch = now
	return now
}

// localTarget maps a global target ID to the engine's target.
func (e *Engine) localTarget(global int) (*target, error) {
	local := global - e.cfg.ID*e.cfg.Targets
	if local < 0 || local >= len(e.targets) {
		return nil, fmt.Errorf("engine %d: target %d not local", e.cfg.ID, global)
	}
	return e.targets[local], nil
}

// cont returns (creating on write paths) the VOS container on a target.
func (t *target) cont(uuid string, create bool) *vos.Container {
	c, ok := t.conts[uuid]
	if !ok && create {
		c = vos.NewContainer(uuid)
		t.conts[uuid] = c
	}
	return c
}

// --- wire types ---

// WriteExt is one extent (or single value) in an update RPC.
//
// Length and Data mirror ReadExt's Length and Dst: Length is the extent's
// byte count and Data, when non-nil, its Length bytes. An array extent with
// nil Data records geometry only — the write's offset and length with no
// bytes stored, for writes whose content nobody reads — and charges exactly
// what the same write with bytes charges: wire size, xstream time, device
// allocation and media bytes all follow Length. A zero Length means
// len(Data), so WriteExt{Dkey, Akey, Data} keeps working. Single values
// always carry Data.
type WriteExt struct {
	Dkey, Akey []byte
	Offset     int64
	Length     int
	Data       []byte
	Single     bool
}

// size returns the extent's byte count.
func (w WriteExt) size() int64 {
	if w.Length == 0 {
		return int64(len(w.Data))
	}
	return int64(w.Length)
}

// ReadExt is one extent (or single value) in a fetch RPC.
//
// Dst and Discard select the zero-copy read modes for array extents (the
// engine handler runs in the calling process, so a destination span is
// addressable directly — the simulation analogue of an RDMA bulk landing in
// a registered client buffer). With Dst set, the engine fills it in place
// and the response aliases it; with Discard set, the engine performs the
// identical visibility walk and charges identical time but moves no bytes
// (reads whose content nobody observes). Neither field contributes to the
// request's wire size: both describe where data lands, not what is sent.
type ReadExt struct {
	Dkey, Akey []byte
	Offset     int64
	Length     int
	Single     bool
	// Dst, when non-nil, receives the extent's bytes (len(Dst) must equal
	// Length). Array reads only.
	Dst []byte
	// Discard simulates the read without materializing data. Array reads
	// only; mutually exclusive with Dst.
	Discard bool
}

// UpdateReq writes a batch of extents to one object shard on one target.
type UpdateReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
	Writes []WriteExt
}

// UpdateResp reports an update's outcome.
type UpdateResp struct {
	FirstTouch bool
	Epoch      vos.Epoch
}

// FetchReq reads a batch of extents from one object shard.
type FetchReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
	Reads  []ReadExt
	// Epoch bounds visibility; 0 means latest.
	Epoch vos.Epoch
}

// FetchResp carries fetched data, parallel to FetchReq.Reads. A nil entry
// reports a missing single value.
type FetchResp struct {
	Data [][]byte
}

// PunchReq deletes an object or one dkey.
type PunchReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
	Dkey   []byte // nil: punch whole object
}

// ListReq enumerates dkeys of a shard.
type ListReq struct {
	Cont   string
	OID    vos.ObjectID
	Target int
}

// ListResp carries enumerated dkeys.
type ListResp struct {
	Dkeys [][]byte
}

// SizeReq queries the shard-local high-water mark of an array object whose
// dkeys are chunk indexes (the DFS file layout).
type SizeReq struct {
	Cont      string
	OID       vos.ObjectID
	Target    int
	Akey      []byte
	ChunkSize int64
}

// SizeResp reports the shard-local end-of-file.
type SizeResp struct {
	Bytes int64
}

// AggregateReq runs VOS aggregation on every container of a target.
type AggregateReq struct {
	Target int
	Epoch  vos.Epoch
}

// AggregateResp reports reclaimed bytes.
type AggregateResp struct {
	Reclaimed int64
}

// reqSize estimates the on-wire size of a request for NIC charging.
func reqSize(body interface{}) int64 {
	switch r := body.(type) {
	case *UpdateReq:
		n := int64(96)
		for _, w := range r.Writes {
			n += int64(len(w.Dkey)+len(w.Akey)+32) + w.size()
		}
		return n
	case *FetchReq:
		n := int64(96)
		for _, rd := range r.Reads {
			n += int64(len(rd.Dkey) + len(rd.Akey) + 32)
		}
		return n
	default:
		return 128
	}
}

// RequestSize is exported for clients that need to pre-compute RPC sizes.
func RequestSize(body interface{}) int64 { return reqSize(body) }

// handle serves the engine's object RPC service.
func (e *Engine) handle(p *sim.Proc, req fabric.Request) fabric.Response {
	if e.down {
		return fabric.Response{Err: fmt.Errorf("%w: engine %d", ErrEngineDown, e.cfg.ID), Size: 64}
	}
	e.RPCs++
	switch body := req.Body.(type) {
	case *UpdateReq:
		return e.handleUpdate(p, body)
	case *FetchReq:
		return e.handleFetch(p, body)
	case *PunchReq:
		return e.handlePunch(p, body)
	case *ListReq:
		return e.handleList(p, body)
	case *SizeReq:
		return e.handleSize(p, body)
	case *AggregateReq:
		return e.handleAggregate(p, body)
	default:
		return fabric.Response{Err: fmt.Errorf("engine: unknown request %T", req.Body), Size: 64}
	}
}

func (e *Engine) handleUpdate(p *sim.Proc, r *UpdateReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()

	for _, w := range r.Writes {
		// Data must hold the extent's bytes when present; single values
		// cannot be geometry-only.
		if (w.Data != nil || w.Single) && int64(len(w.Data)) != w.size() {
			return fabric.Response{Err: fmt.Errorf("engine: write of %d bytes carries %d (single=%v)", w.size(), len(w.Data), w.Single), Size: 64}
		}
	}
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, true)
	epoch := e.nextEpoch()
	first := false
	var bytes int64
	for _, w := range r.Writes {
		var created bool
		if w.Single {
			created = cont.UpdateSingle(r.OID, w.Dkey, w.Akey, epoch, w.Data)
		} else {
			created = cont.UpdateArray(r.OID, w.Dkey, w.Akey, epoch, w.Offset, int(w.size()), w.Data)
		}
		if created {
			first = true
		}
		bytes += w.size()
		p.Sleep(e.cfg.Costs.PerExtentCost)
	}
	if first {
		p.Sleep(e.cfg.Costs.FirstTouchCost)
	}
	e.clientWrBytes += bytes
	scmBytes, bulkBytes := e.tierSplit(r.Writes)
	if err := e.device.Alloc(scmBytes); err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	if bulkBytes > 0 {
		if err := e.bulk.Alloc(bulkBytes); err != nil {
			e.device.Free(scmBytes)
			return fabric.Response{Err: err, Size: 64}
		}
		e.bulk.Write(p, bulkBytes)
	}
	e.device.Write(p, scmBytes)
	return fabric.Response{Body: &UpdateResp{FirstTouch: first, Epoch: epoch}, Size: 64}
}

func (e *Engine) handleFetch(p *sim.Proc, r *FetchReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()

	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		// Nothing was ever written through this target: the whole batch
		// reads as absent (array holes / missing singles).
		return fabric.Response{Body: &FetchResp{Data: make([][]byte, len(r.Reads))}, Size: 64}
	}
	epoch := r.Epoch
	if epoch == 0 {
		epoch = vos.EpochMax
	}
	// Timing and wire accounting depend only on each read's length and
	// whether its akey is present — never on materialized buffers — so the
	// zero-copy (Dst) and no-materialize (Discard) modes charge exactly what
	// the allocating path charges: a present array read contributes Length
	// to device bytes, tier routing, and response size whether its bytes
	// land in a fresh buffer, the caller's span, or nowhere.
	resp := &FetchResp{Data: make([][]byte, len(r.Reads))}
	var bytes, bulkBytes int64
	size := int64(64)
	for i, rd := range r.Reads {
		p.Sleep(e.cfg.Costs.PerExtentCost)
		if rd.Single {
			v, err := cont.FetchSingle(r.OID, rd.Dkey, rd.Akey, epoch)
			if err != nil {
				if errors.Is(err, vos.ErrNotFound) || errors.Is(err, vos.ErrPunched) {
					resp.Data[i] = nil
					continue
				}
				return fabric.Response{Err: err, Size: 64}
			}
			resp.Data[i] = v
			bytes += int64(len(v))
			size += int64(len(v))
			continue
		}
		var err error
		switch {
		case rd.Discard:
			err = cont.FetchArrayInto(r.OID, rd.Dkey, rd.Akey, epoch, rd.Offset, rd.Length, nil)
		case rd.Dst != nil:
			err = cont.FetchArrayInto(r.OID, rd.Dkey, rd.Akey, epoch, rd.Offset, rd.Length, rd.Dst)
			if err == nil {
				resp.Data[i] = rd.Dst
			}
		default:
			var v []byte
			v, err = cont.FetchArray(r.OID, rd.Dkey, rd.Akey, epoch, rd.Offset, rd.Length)
			if err == nil {
				resp.Data[i] = v
			}
		}
		if err != nil {
			if errors.Is(err, vos.ErrNotFound) || errors.Is(err, vos.ErrPunched) {
				resp.Data[i] = nil
				continue
			}
			return fabric.Response{Err: err, Size: 64}
		}
		bytes += int64(rd.Length)
		size += int64(rd.Length)
		if e.bulk != nil && int64(rd.Length) >= e.cfg.BulkThreshold {
			bulkBytes += int64(rd.Length)
		}
	}
	if e.bulk != nil {
		// Split the fetch between tiers with the same routing rule the
		// writes used.
		e.bulk.Read(p, bulkBytes)
		bytes -= bulkBytes
	}
	e.device.Read(p, bytes)
	e.clientRdBytes += size - 64
	return fabric.Response{Body: resp, Size: size}
}

func (e *Engine) handlePunch(p *sim.Proc, r *PunchReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		return fabric.Response{Body: &UpdateResp{}, Size: 64} // nothing to punch
	}
	epoch := e.nextEpoch()
	if r.Dkey == nil {
		err = cont.PunchObject(r.OID, epoch)
	} else {
		err = cont.PunchDkey(r.OID, r.Dkey, epoch)
	}
	if err != nil && !errors.Is(err, vos.ErrNotFound) {
		return fabric.Response{Err: err, Size: 64}
	}
	return fabric.Response{Body: &UpdateResp{Epoch: epoch}, Size: 64}
}

func (e *Engine) handleList(p *sim.Proc, r *ListReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		return fabric.Response{Body: &ListResp{}, Size: 64}
	}
	dkeys, err := cont.ListDkeys(r.OID, vos.EpochMax)
	if err != nil && !errors.Is(err, vos.ErrNotFound) {
		return fabric.Response{Err: err, Size: 64}
	}
	size := int64(64)
	for _, dk := range dkeys {
		size += int64(len(dk))
	}
	return fabric.Response{Body: &ListResp{Dkeys: dkeys}, Size: size}
}

func (e *Engine) handleSize(p *sim.Proc, r *SizeReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	p.Sleep(e.cfg.Costs.RPCCost)
	cont := t.cont(r.Cont, false)
	if cont == nil {
		return fabric.Response{Body: &SizeResp{}, Size: 64}
	}
	dkeys, err := cont.ListDkeys(r.OID, vos.EpochMax)
	if err != nil {
		if errors.Is(err, vos.ErrNotFound) {
			return fabric.Response{Body: &SizeResp{}, Size: 64}
		}
		return fabric.Response{Err: err, Size: 64}
	}
	var max int64
	for _, dk := range dkeys {
		p.Sleep(e.cfg.Costs.PerExtentCost)
		idx, ok := DecodeChunkDkey(dk)
		if !ok {
			continue
		}
		sz := cont.ArraySize(r.OID, dk, r.Akey, vos.EpochMax)
		if end := idx*r.ChunkSize + sz; end > max {
			max = end
		}
	}
	return fabric.Response{Body: &SizeResp{Bytes: max}, Size: 64}
}

func (e *Engine) handleAggregate(p *sim.Proc, r *AggregateReq) fabric.Response {
	t, err := e.localTarget(r.Target)
	if err != nil {
		return fabric.Response{Err: err, Size: 64}
	}
	t.xstream.Acquire(p)
	defer t.xstream.Release()
	var reclaimed int64
	for _, cont := range t.conts {
		reclaimed += cont.Aggregate(r.Epoch)
	}
	if reclaimed > 0 {
		e.device.Free(reclaimed)
	}
	return fabric.Response{Body: &AggregateResp{Reclaimed: reclaimed}, Size: 64}
}

// chunkPrefix starts every chunk dkey; 16 lowercase hex digits follow.
const chunkPrefix = "chunk."

// chunkDkeyLen is the length of every chunk dkey.
const chunkDkeyLen = len(chunkPrefix) + 16

// ChunkDkey encodes a chunk index as the dkey of a striped array object
// (the DFS file layout: one dkey per chunk): "chunk." and the index as 16
// zero-padded lowercase hex digits, fmt's "chunk.%016x". Chunk indices are
// never negative (daos.Array rejects negative offsets).
func ChunkDkey(idx int64) []byte {
	const hex = "0123456789abcdef"
	dk := make([]byte, chunkDkeyLen)
	copy(dk, chunkPrefix)
	for i, u := chunkDkeyLen-1, uint64(idx); i >= len(chunkPrefix); i, u = i-1, u>>4 {
		dk[i] = hex[u&0xf]
	}
	return dk
}

// DecodeChunkDkey parses a chunk dkey back to its index. It accepts
// exactly the dkeys ChunkDkey produces for idx >= 0.
func DecodeChunkDkey(dk []byte) (int64, bool) {
	if len(dk) != chunkDkeyLen || string(dk[:len(chunkPrefix)]) != chunkPrefix {
		return 0, false
	}
	var u uint64
	for _, c := range dk[len(chunkPrefix):] {
		switch {
		case '0' <= c && c <= '9':
			u = u<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			u = u<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// NumContainers reports how many distinct containers hold data on this
// engine (for tests and reporting).
func (e *Engine) NumContainers() int {
	seen := map[string]bool{}
	for _, t := range e.targets {
		for uuid := range t.conts {
			seen[uuid] = true
		}
	}
	return len(seen)
}

// TargetObjects reports the number of object shards on a global target ID.
func (e *Engine) TargetObjects(global int) int {
	t, err := e.localTarget(global)
	if err != nil {
		return 0
	}
	n := 0
	for _, c := range t.conts {
		n += c.NumObjects()
	}
	return n
}

// XstreamUtilisation returns the mean utilisation across the engine's
// target xstreams.
func (e *Engine) XstreamUtilisation() float64 {
	var sum float64
	for _, t := range e.targets {
		sum += t.xstream.Utilisation()
	}
	return sum / float64(len(e.targets))
}
