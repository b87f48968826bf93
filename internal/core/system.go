package core

import (
	"errors"
	"fmt"
	"slices"

	"doram/internal/addrmap"
	"doram/internal/bob"
	"doram/internal/clock"
	"doram/internal/cpu"
	"doram/internal/delegator"
	"doram/internal/dram"
	"doram/internal/evtrace"
	"doram/internal/faults"
	"doram/internal/mc"
	"doram/internal/metrics"
	"doram/internal/oram"
	"doram/internal/oram/layout"
	"doram/internal/secmem"
	"doram/internal/stats"
	"doram/internal/trace"
)

// System is one fully assembled simulation: cores, memory backend and
// (optionally) the S-App protection machinery.
type System struct {
	cfg Config
	res *Results

	nsCores []*cpu.Core
	sCores  []*cpu.Core

	// chans are the memory channels in channel order: BOB channels
	// (DORAM) or direct-attached ones, link-less BOB controllers
	// (NonSecure, PathORAMBaseline, SecureMemory).
	chans []*bob.SimpleController

	// chanMappers maps channel-local addresses onto each channel's
	// sub-channel geometry.
	chanMappers [NumChannels]*addrmap.Mapper

	engines []*delegator.Engine
	// sds are the S-App copies' ORAM executors: secure delegators behind
	// the secure BOB (DORAM) or on-chip over the direct channels'
	// controllers (PathORAMBaseline).
	sds   []*delegator.SD
	smems []*secmem.SecMem

	// Warmup counters for latency-stat cold-start cuts.
	readWarm  uint64
	writeWarm uint64

	// Observability (nil/0 unless Config.MetricsEpochCycles is set). The
	// run loop gates sampling on metricsEpoch != 0 so the disabled path
	// costs one predictable branch per cycle.
	metrics      *metrics.Registry
	metricsEpoch uint64

	// trace is the per-access span tracer (nil unless Config.TraceEvents);
	// every component call through it is nil-safe.
	trace *evtrace.Tracer

	// sdAllChans widens the fast-forward loop's SD-event invalidation from
	// the secure channel to every channel: with tree-top splitting
	// (SplitK > 0) the SD also enqueues relocated blocks remotely, and the
	// on-chip executor stripes over every direct channel.
	sdAllChans bool

	// submitted marks the channels an NS port has submitted a request to
	// since the fast-forward loop's previous visited edge: an NS core's
	// access wakes only the channel it used.
	submitted [NumChannels]bool

	// freeNS is the free list of NS-App port requests. Allocation (Access
	// from tickCPU) and recycling (completion callbacks) both run on the
	// simulation goroutine, so the list needs no locking.
	freeNS *nsReq

	// visits counts the cycles the fast-forward loop visited; chanTicks
	// the channel ticks it made.
	visits, chanTicks uint64
}

// nsReq is one pooled NS-port request: the NSRequest submitted to a channel
// plus the latency-recording state its completions need. The two callback
// method values are bound once at allocation.
type nsReq struct {
	ns     bob.NSRequest
	sys    *System
	ch     int
	issue  uint64
	onDone func(uint64) // the core's read callback

	onDoneFn    func(uint64)
	onDrainedFn func(uint64)
	next        *nsReq
}

func (s *System) getNSReq() *nsReq {
	r := s.freeNS
	if r == nil {
		r = &nsReq{sys: s}
		r.onDoneFn = r.done
		r.onDrainedFn = r.drained
		return r
	}
	s.freeNS = r.next
	r.next = nil
	return r
}

func (s *System) putNSReq(r *nsReq) {
	r.onDone = nil
	r.next = s.freeNS
	s.freeNS = r
}

// done finishes a read: the data reached the CPU.
func (r *nsReq) done(doneCycle uint64) {
	sys, ch, issue, onDone := r.sys, r.ch, r.issue, r.onDone
	sys.putNSReq(r)
	sys.recordRead(ch, elapsed(issue, doneCycle))
	if onDone != nil {
		onDone(doneCycle)
	}
}

// drained finishes a posted write: the data reached the DRAM device.
func (r *nsReq) drained(doneCycle uint64) {
	sys, ch, issue := r.sys, r.ch, r.issue
	sys.putNSReq(r)
	sys.recordWrite(ch, elapsed(issue, doneCycle))
}

// elapsed returns the CPU cycles from issue to done. A direct channel
// completes a coalesced write or a read forwarded from the write queue at
// its enqueue's memory edge, which can fall before the issuing CPU cycle:
// such an instant completion took 0 cycles.
func elapsed(issue, done uint64) uint64 {
	if done < issue {
		return 0
	}
	return done - issue
}

// appBase separates per-application address spaces so different apps use
// different DRAM rows, as distinct OS allocations would. The bank-granular
// stagger decorrelates the apps' starting banks (a shared base would pile
// every app's hot region into the same banks).
func appBase(appID int) uint64 {
	return uint64(appID+1)<<36 + uint64(appID)*7919*8192
}

// route splits an application address across its allowed channels:
// line-interleaved channel choice, with the per-channel remainder kept
// dense so streams stay row-local within each channel.
func route(addr uint64, channels []int) (ch int, localAddr uint64) {
	line := addr / trace.LineBytes
	n := uint64(len(channels))
	return channels[line%n], (line / n) * trace.LineBytes
}

// NewSystem builds the system described by cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, res: &Results{Config: cfg}}
	// Read-latency histogram bounds: 50 ns to 2 us in CPU cycles.
	s.res.NSReadHist = stats.NewHistogram([]uint64{
		160, 320, 480, 640, 960, 1280, 1920, 2560, 3840, 6400,
	})
	geo := cfg.geometry()

	mcCfg := mc.DefaultConfig()
	// Cooperative bandwidth preallocation [39] is part of the D-ORAM
	// design for channels the S-App shares with NS-Apps (§IV). The Path
	// ORAM baseline runs plain FR-FCFS, whose ready-row-hit preference
	// lets ORAM's path streaks hog the channels — the interference
	// Figure 4 quantifies.
	mcCfg.CoopEnabled = cfg.HasSApp && cfg.Scheme == DORAM
	mcCfg.CoopThreshold = cfg.CoopThreshold

	newMC := func() *mc.Controller {
		return mc.New(dram.NewChannel(cfg.timing(), geo.Ranks, geo.Banks), mcCfg)
	}

	linkCfg := bob.DefaultLinkConfig()
	if cfg.LinkLatencyNs > 0 {
		linkCfg.LatencyCycles = clock.NanosToCPU(cfg.LinkLatencyNs)
	}

	if cfg.Scheme == DORAM {
		newBob := func(c int, subs []*mc.Controller) (*bob.SimpleController, error) {
			link, err := bob.NewLink(linkCfg)
			if err != nil {
				return nil, err
			}
			if cfg.LinkCorruptProb > 0 || cfg.LinkLossProb > 0 {
				link.SetFaultModel(faults.NewLinkModel(
					cfg.Seed^0x11f4+uint64(c)*0x9d5f, cfg.LinkCorruptProb, cfg.LinkLossProb))
			}
			return bob.NewSimpleController(link, subs, 64)
		}
		// Channel 0: 4 sub-channels behind one serial link; channels 1..3:
		// 1 sub-channel each (§IV).
		subs := make([]*mc.Controller, SecureSubChannels)
		subBuses := make([]int, SecureSubChannels)
		for i := range subs {
			subs[i] = newMC()
			subBuses[i] = i
		}
		b, err := newBob(0, subs)
		if err != nil {
			return nil, err
		}
		s.chans = append(s.chans, b)
		s.chanMappers[0] = addrmap.New(geo, subBuses)
		for c := 1; c < NumChannels; c++ {
			b, err := newBob(c, []*mc.Controller{newMC()})
			if err != nil {
				return nil, err
			}
			s.chans = append(s.chans, b)
			s.chanMappers[c] = addrmap.New(geo, []int{0})
		}
	} else {
		for c := 0; c < NumChannels; c++ {
			s.chans = append(s.chans, bob.NewDirect(newMC(), c))
			s.chanMappers[c] = addrmap.New(geo, []int{0})
		}
	}

	s.sdAllChans = cfg.SplitK > 0 || cfg.Scheme != DORAM

	spec, _ := trace.ByName(cfg.Benchmark) // Validate checked the name
	coreCfg := cpu.DefaultConfig()

	// S-App machinery: one engine/executor per S-App copy.
	numS := cfg.NumS
	if cfg.HasSApp && numS == 0 {
		numS = 1
	}
	for i := 0; i < numS; i++ {
		if err := s.buildSApp(geo, i); err != nil {
			return nil, err
		}
	}

	// Cores. The S-App cores (IDs NumNS..) run the same program as the
	// NS-Apps per the paper's methodology; each core's seed salt
	// decorrelates its stream from its co-runners'.
	for i := 0; i < cfg.NumNS; i++ {
		gen := trace.Limit(trace.NewGenerator(spec, cfg.Seed+uint64(i+1)*0x9e3779b9), cfg.TraceLen)
		s.nsCores = append(s.nsCores, cpu.New(i, coreCfg, gen, s.nsPort(i)))
	}
	for i := 0; i < numS; i++ {
		gen := trace.Limit(trace.NewGenerator(spec, cfg.Seed+0xabcdef+uint64(i)*0x51ab), cfg.TraceLen)
		s.sCores = append(s.sCores, cpu.New(cfg.NumNS+i, coreCfg, gen, s.sPort(i)))
	}
	if cfg.MetricsEpochCycles > 0 {
		s.attachMetrics(cfg.MetricsEpochCycles)
	}
	if cfg.TraceEvents {
		s.attachTrace()
	}
	return s, nil
}

// attachTrace builds the run's event tracer and wires every component's
// spans onto stable tracks mirroring the metric prefixes: one track per
// link direction, BOB controller, (sub-)channel MC and DRAM device, and
// per S-App copy a "sapp<N>" lifecycle track plus its engine's.
func (s *System) attachTrace() {
	t := evtrace.New(evtrace.Config{
		Limit:    s.cfg.TraceLimit,
		Sample:   s.cfg.TraceSample,
		TopK:     s.cfg.TraceTopK,
		OramOnly: s.cfg.TraceOramOnly,
	})
	s.trace = t
	for c, ch := range s.chans {
		track := "cpu" // a direct channel's NS spans: no on-board row
		if l := ch.Link(); l != nil {
			l.AttachTracer(t, fmt.Sprintf("chan%d.link.", c))
			track = fmt.Sprintf("chan%d.bob", c)
		}
		ch.AttachTracer(t, track)
		for i, sub := range ch.SubChannels() {
			p := subPrefix(ch, c, i)
			sub.AttachTracer(t, p+"mc")
			sub.Channel().AttachTracer(t, p+"dram")
		}
	}
	for i, sd := range s.sds {
		sd.AttachTracer(t, fmt.Sprintf("sapp%d", i))
	}
	for i, e := range s.engines {
		e.AttachTracer(t, fmt.Sprintf("sapp%d.engine", i))
	}
}

// attachMetrics builds the run's metric registry, wires every simulated
// component into it under a stable naming scheme ("chan<N>." per channel,
// "sapp<N>." per S-App copy) and arms timeline sampling.
func (s *System) attachMetrics(epoch uint64) {
	r := metrics.New()
	s.metrics, s.metricsEpoch = r, epoch
	for c, ch := range s.chans {
		if l := ch.Link(); l != nil {
			p := fmt.Sprintf("chan%d.", c)
			l.AttachMetrics(r, p+"link.")
			ch.AttachMetrics(r, p+"bob.")
		}
		for i, sub := range ch.SubChannels() {
			p := subPrefix(ch, c, i)
			sub.AttachMetrics(r, p+"mc.")
			sub.Channel().AttachMetrics(r, p+"dram.")
		}
		s.attachChannelAggregates(r, c, ch.SubChannels())
	}
	for i, sd := range s.sds {
		sd.AttachMetrics(r, fmt.Sprintf("sapp%d.", i))
	}
	for i, e := range s.engines {
		e.AttachMetrics(r, fmt.Sprintf("sapp%d.engine.", i))
	}
	r.StartTimeline(epoch)
}

// subPrefix names sub-channel i of channel c in metrics and trace tracks:
// "chan<c>.sub<i>." behind a BOB, "chan<c>." on a direct channel.
func subPrefix(ch *bob.SimpleController, c, i int) string {
	if ch.Link() == nil {
		return fmt.Sprintf("chan%d.", c)
	}
	return fmt.Sprintf("chan%d.sub%d.", c, i)
}

// controllers gathers every channel's controllers in channel order, for
// the S-App machinery that drives them directly (the on-chip executor and
// secure memory).
func (s *System) controllers() []*mc.Controller {
	var mcs []*mc.Controller
	for _, ch := range s.chans {
		mcs = append(mcs, ch.SubChannels()...)
	}
	return mcs
}

// attachChannelAggregates registers channel-level rollups over the
// channel's sub-channel controllers: the per-epoch data-bus utilization
// whose integral reproduces Results.ChannelDataBusBusy, its cumulative
// denominator, and summed queue/drain state.
func (s *System) attachChannelAggregates(r *metrics.Registry, c int, subs []*mc.Controller) {
	p := fmt.Sprintf("chan%d.", c)
	busyTotal := func() (uint64, uint64) {
		var busy, total uint64
		for _, sub := range subs {
			db := &sub.Channel().Stats().DataBus
			busy += db.Busy()
			total += db.Total()
		}
		return busy, total
	}
	r.Gauge(p+"bus_util", metrics.Ratio(busyTotal))
	r.Gauge(p+"mem_cycles", func(uint64) float64 {
		_, total := busyTotal()
		return float64(total)
	})
	r.CounterFunc(p+"bus_busy_cycles", func() uint64 {
		busy, _ := busyTotal()
		return busy
	})
	r.Gauge(p+"read_q", metrics.Level(func() int {
		n := 0
		for _, sub := range subs {
			reads, _ := sub.QueueLen()
			n += reads
		}
		return n
	}))
	r.Gauge(p+"write_q", metrics.Level(func() int {
		n := 0
		for _, sub := range subs {
			_, writes := sub.QueueLen()
			n += writes
		}
		return n
	}))
	r.Gauge(p+"draining", metrics.Level(func() int {
		n := 0
		for _, sub := range subs {
			if sub.Draining() {
				n++
			}
		}
		return n
	}))
}

// buildSApp wires one S-App copy's executor and engine. Each copy owns a
// disjoint ORAM region (idx staggers the base) so multiple S-Apps pressure
// the secure channel's capacity the way §III-C describes.
func (s *System) buildSApp(geo addrmap.Geometry, idx int) error {
	subtree := s.cfg.SubtreeLevels
	if subtree == 0 {
		subtree = layout.DefaultSubtreeLevels
	}
	sdCfg := delegator.DefaultSDConfig()
	sdCfg.OramBase += uint64(idx) << 37
	seed := s.cfg.Seed ^ 0x5eed ^ uint64(idx)<<32
	switch s.cfg.Scheme {
	case PathORAMBaseline, DORAM:
		p := oram.PaperParams()
		p.Levels += s.cfg.SplitK // tree expansion (§III-C); 0 off DORAM
		lay := layout.New(p, subtree, s.cfg.SplitK)
		sampler := oram.NewSampler(p, seed)
		sampler.SetForkPath(s.cfg.ForkPath)
		if err := sampler.SetEviction(s.cfg.Eviction); err != nil {
			return err // unreachable after Config.Validate; defense in depth
		}
		var sd *delegator.SD
		var err error
		if s.cfg.Scheme == DORAM {
			sd, err = delegator.NewSD(sdCfg, sampler, lay, s.chans[0], s.chans[1:], geo)
		} else {
			sd, err = delegator.NewOnChip(sdCfg, sampler, lay, s.controllers(), geo)
		}
		if err != nil {
			return err
		}
		// Phase overlap pipelines the delegator; the baseline stays serial.
		sd.SetOverlapPhases(s.cfg.OverlapPhases && s.cfg.Scheme == DORAM)
		s.sds = append(s.sds, sd)
		s.engines = append(s.engines, delegator.NewEngine(sd, s.cfg.Pace, 16))
	case SecureMemory:
		buses := make([]int, NumChannels)
		for i := range buses {
			buses[i] = i
		}
		mapper := addrmap.New(geo, buses)
		s.smems = append(s.smems,
			secmem.New(s.controllers(), mapper, s.cfg.NumNS+idx))
	default:
		return fmt.Errorf("core: scheme %v cannot host an S-App", s.cfg.Scheme)
	}
	return nil
}

// nsPort builds NS-App i's memory port.
func (s *System) nsPort(i int) cpu.Port {
	return &chanPort{sys: s, appID: i, channels: s.cfg.nsChannelsFor(i), base: appBase(i)}
}

// sPort builds S-App copy idx's memory port.
func (s *System) sPort(idx int) cpu.Port {
	if len(s.smems) > 0 {
		return &secMemPort{smem: s.smems[idx], base: appBase(s.cfg.NumNS + idx)}
	}
	return s.engines[idx]
}

// chanPort routes an NS-App's accesses to its memory channels: over the
// serial links of the BOB architecture, or straight into the direct-attached
// controllers.
type chanPort struct {
	sys      *System
	appID    int
	channels []int
	base     uint64
}

// Access implements cpu.Port.
func (p *chanPort) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	ch, localAddr := route(addr, p.channels)
	coord := p.sys.chanMappers[ch].Map(p.base + localAddr)
	sys := p.sys
	r := sys.getNSReq()
	r.ch, r.issue, r.onDone = ch, now, onDone
	r.ns = bob.NSRequest{Write: write, Coord: coord, AppID: p.appID}
	if sys.trace != nil {
		r.ns.TraceID = sys.trace.RequestID()
	}
	if write {
		r.ns.OnWriteDrained = r.onDrainedFn
	} else {
		r.ns.OnDone = r.onDoneFn
	}
	if !sys.chans[ch].Submit(&r.ns, now) {
		sys.putNSReq(r)
		return false
	}
	sys.submitted[ch] = true
	return true
}

// secMemPort adapts the secure-memory model to an S-App core, applying
// the app's address-space base.
type secMemPort struct {
	smem *secmem.SecMem
	base uint64
}

// Access implements cpu.Port.
func (p *secMemPort) Access(write bool, addr uint64, now uint64, onDone func(uint64)) bool {
	return p.smem.Access(write, p.base+addr, now, onDone)
}

func (s *System) recordRead(ch int, lat uint64) {
	if s.readWarm < s.cfg.LatencyWarmup {
		s.readWarm++
		return
	}
	s.res.ReadLatPerChannel[ch].Observe(lat)
	s.res.NSReadLat.Observe(lat)
	s.res.NSReadHist.Observe(lat)
}

func (s *System) recordWrite(ch int, lat uint64) {
	if s.writeWarm < s.cfg.LatencyWarmup {
		s.writeWarm++
		return
	}
	s.res.WriteLatPerChannel[ch].Observe(lat)
	s.res.NSWriteLat.Observe(lat)
}

// runState tracks per-core completion across the run so the loop's
// done-check is O(1): a counter of unfinished measured cores, decremented
// the tick a core retires its last instruction, instead of a per-cycle
// scan over every core. NS cores are the measured set; with no NS-Apps the
// S-App cores are measured instead.
type runState struct {
	nsDone       []bool
	sDone        []bool
	measureNS    bool // NS cores are the measured set
	measuredLeft int
	stopped      bool // Config.Stop fired; the run aborts with ErrStopped
}

// ErrStopped is returned by Run when Config.Stop reports cancellation.
// Callers that wrapped the run in a context should translate it back into
// their context's error.
var ErrStopped = errors.New("core: run stopped by Config.Stop")

// stopCheckMask throttles Config.Stop polling: the hook runs once every
// 4096 loop iterations, so even a context check stays invisible next to
// the per-iteration component work.
const stopCheckMask = 1<<12 - 1

func newRunState(s *System) *runState {
	st := &runState{
		nsDone:    make([]bool, len(s.nsCores)),
		sDone:     make([]bool, len(s.sCores)),
		measureNS: len(s.nsCores) > 0,
	}
	if st.measureNS {
		st.measuredLeft = len(s.nsCores)
	} else {
		st.measuredLeft = len(s.sCores)
	}
	// Degenerate traces can produce cores that are born finished.
	for i, c := range s.nsCores {
		if c.Done() {
			st.markNSDone(i)
		}
	}
	for i, c := range s.sCores {
		if c.Done() {
			st.markSDone(i)
		}
	}
	return st
}

func (st *runState) markNSDone(i int) {
	st.nsDone[i] = true
	if st.measureNS {
		st.measuredLeft--
	}
}

func (st *runState) markSDone(i int) {
	st.sDone[i] = true
	if !st.measureNS {
		st.measuredLeft--
	}
}

// Run executes the simulation until every measured core finishes and
// returns the results.
//
// By default the run fast-forwards: every component exposes an event
// horizon, the loop jumps the clock straight to the earliest one, and
// cores and memory-side components are additionally ticked lazily — a
// core only at the cycles it touches its port or finishes, a controller
// only once its horizon has arrived, even on visited edges — with the few
// per-cycle counters their elided ticks would have advanced (engine
// rejections of a core retrying a full queue, DRAM bus-utilization
// denominators) brought up to date before anything reads them. Config.NoFastForward reverts to the
// original cycle-by-cycle loop; both paths are bit-identical in Results,
// metrics and traces — the differential suite enforces it.
func (s *System) Run() (*Results, error) {
	st := newRunState(s)
	var cyc uint64
	var lz *memLazy
	if s.cfg.NoFastForward {
		cyc = s.runEveryCycle(st)
	} else {
		cyc, lz = s.runFastForward(st)
	}
	if st.stopped {
		return nil, ErrStopped
	}
	if cyc >= s.cfg.MaxCycles {
		return nil, fmt.Errorf("core: run exceeded MaxCycles=%d (%s, %s)",
			s.cfg.MaxCycles, s.cfg.Scheme, s.cfg.Benchmark)
	}
	if lz != nil {
		s.settleMem(cyc, lz)
	}
	s.collect(cyc)
	return s.res, nil
}

// runEveryCycle is the reference loop: every CPU cycle visited, every
// component ticked. It returns the finish cycle (== MaxCycles on overrun).
func (s *System) runEveryCycle(st *runState) uint64 {
	var cyc, iter uint64
	for cyc < s.cfg.MaxCycles {
		if iter&stopCheckMask == 0 && s.cfg.Stop != nil && s.cfg.Stop() {
			st.stopped = true
			break
		}
		iter++
		s.tickCycle(cyc, clock.IsMemEdge(cyc), st)
		if s.metricsEpoch != 0 && cyc%s.metricsEpoch == 0 && cyc > 0 {
			s.metrics.Sample(cyc)
		}
		if st.measuredLeft == 0 {
			break
		}
		cyc++
	}
	return cyc
}

// memLazy is the fast-forward loop's per-component memory-side state:
// cached event horizons (CPU cycles) and the memory cycle count through
// which each component's per-cycle accounting has been settled, by Tick or
// by bulk Skip. Indexes parallel s.chans.
type memLazy struct {
	next    []uint64
	set     []uint64 // mem cycles [0, set) accounted
	memNext uint64   // global memory-side horizon, min over components
}

// coreLazy is the fast-forward loop's per-core state. cores lists every
// core in tick order (NS-Apps, then S-App copies); hz caches each core's
// Horizon, the next cycle it touches its port or finishes. A core is
// ticked only at its horizon and brought current with CatchUp in
// between. stale marks the cores whose horizon a tick, a read completion
// or an engine freeing queue space has invalidated during the visited
// cycle cyc.
type coreLazy struct {
	cores []*cpu.Core
	nNS   int
	hz    []uint64
	stale []bool
	cyc   uint64
}

func newCoreLazy(s *System) *coreLazy {
	cl := &coreLazy{
		cores: append(append([]*cpu.Core(nil), s.nsCores...), s.sCores...),
		nNS:   len(s.nsCores),
	}
	cl.hz = make([]uint64, len(cl.cores)) // every core ticks at cycle 0,
	cl.stale = make([]bool, len(cl.cores))
	for i, c := range cl.cores {
		if c.Done() {
			cl.hz[i] = clock.Never // unless its trace was empty
		}
		c.SetWake(func() { cl.wake(i) })
	}
	return cl
}

// wake brings core i current through the visited cycle and marks its
// horizon stale. Read completions call it before the read becomes
// visible; the loop calls it when the core's engine frees queue space.
func (cl *coreLazy) wake(i int) {
	cl.cores[i].CatchUp(cl.cyc)
	cl.stale[i] = true
}

// tick ticks every core whose horizon is due at cyc and reports whether
// any NS core and any S-App core did.
func (cl *coreLazy) tick(cyc uint64, st *runState) (nsTicked, sTicked bool) {
	for i, c := range cl.cores {
		if cl.hz[i] > cyc {
			continue
		}
		if cyc > 0 {
			c.CatchUp(cyc - 1)
		}
		c.Tick(cyc)
		if i < cl.nNS {
			nsTicked = true
		} else {
			sTicked = true
		}
		cl.stale[i] = true
		if c.Done() {
			if i < cl.nNS {
				st.markNSDone(i)
			} else {
				st.markSDone(i - cl.nNS)
			}
		}
	}
	return nsTicked, sTicked
}

// refresh recomputes the horizons invalidated during cycle cyc; a
// finished core's is clock.Never.
func (cl *coreLazy) refresh(cyc uint64) {
	for i, c := range cl.cores {
		if cl.stale[i] {
			cl.stale[i] = false
			cl.hz[i] = c.Horizon(cyc)
		}
	}
}

// catchUp brings every core current through cyc, before an observation
// point reads their counters (a metrics sample reads the engines'
// rejection counts) and at the end of the run.
func (cl *coreLazy) catchUp(cyc uint64) {
	for _, c := range cl.cores {
		c.CatchUp(cyc)
	}
}

// runFastForward is the event-horizon loop. Invariants:
//   - a core ticks only at its horizon, the next cycle it touches its
//     port or finishes, after CatchUp to the cycle before; the silent
//     cycles in between are applied lazily by CatchUp;
//   - a visited cycle ticks every engine, exactly like the reference loop;
//   - a visited memory edge ticks only memory components whose cached
//     horizon has arrived, plus every channel an NS core submitted to
//     since the previous visited edge, or all of them if an S-App core
//     ticked or an engine acted since then (ticked components re-cache
//     fresh horizons);
//   - jumps go to the minimum of the core horizons, the engine horizons,
//     the memory horizon, the next metrics sample boundary and MaxCycles;
//     a jump after such CPU activity off an edge is clamped to the next
//     edge, because that activity can create memory work the cached
//     horizon does not know about.
func (s *System) runFastForward(st *runState) (uint64, *memLazy) {
	lz := &memLazy{
		next:    make([]uint64, len(s.chans)),
		set:     make([]uint64, len(s.chans)),
		memNext: clock.Never,
	}
	cl := newCoreLazy(s)
	var cyc, engNext, iter uint64
	// cpuActive: a core ticked or an engine acted since the previous
	// visited edge, so memory enqueues are possible. invalAll: they are
	// possible on any channel; an NS core's accesses mark only the
	// channels they used (s.submitted).
	cpuActive, invalAll := false, false
	for cyc < s.cfg.MaxCycles {
		if iter&stopCheckMask == 0 && s.cfg.Stop != nil && s.cfg.Stop() {
			st.stopped = true
			break
		}
		iter++
		s.visits++
		cl.cyc = cyc
		nsTicked, sTicked := cl.tick(cyc, st)
		if sTicked || engNext <= cyc {
			cpuActive, invalAll = true, true
		} else if nsTicked {
			cpuActive = true
		}
		for i, e := range s.engines {
			n := e.QueueLen()
			e.Tick(cyc)
			if e.QueueLen() < n {
				cl.wake(cl.nNS + i) // a core asleep on the full queue may retry
			}
		}
		onEdge := clock.IsMemEdge(cyc)
		if onEdge {
			s.tickMemLazy(cyc, lz, invalAll)
			cpuActive, invalAll = false, false
		}
		cl.refresh(cyc)
		if s.metricsEpoch != 0 && cyc%s.metricsEpoch == 0 && cyc > 0 {
			cl.catchUp(cyc)
			s.settleMem(cyc, lz)
			s.metrics.Sample(cyc)
		}
		if st.measuredLeft == 0 {
			cl.catchUp(cyc)
			break
		}
		engNext = clock.Never
		for _, e := range s.engines {
			engNext = min(engNext, e.NextEvent(cyc))
		}
		next := cyc + 1
		if t := min(slices.Min(cl.hz), engNext); t > next {
			m := lz.memNext
			if cpuActive {
				m = clock.AlignMemEdge(next)
			}
			if m < t {
				t = m
			}
			if s.metricsEpoch != 0 {
				if b := cyc - cyc%s.metricsEpoch + s.metricsEpoch; b < t {
					t = b
				}
			}
			if t > s.cfg.MaxCycles {
				t = s.cfg.MaxCycles
			}
			next = max(next, t)
		}
		cyc = next
	}
	return cyc, lz
}

// tickCycle advances every component by one CPU cycle in the fixed order
// the simulation has always used: cores, engines, then (on memory edges)
// delegators and channels.
func (s *System) tickCycle(cyc uint64, onEdge bool, st *runState) {
	s.tickCPU(cyc, st)
	if onEdge {
		for _, sd := range s.sds {
			sd.Tick(cyc)
		}
		for _, ch := range s.chans {
			ch.Tick(cyc)
		}
	}
}

// tickCPU advances the CPU-domain components (cores then engines).
func (s *System) tickCPU(cyc uint64, st *runState) {
	for i, c := range s.nsCores {
		if st.nsDone[i] {
			continue
		}
		c.Tick(cyc)
		if c.Done() {
			st.markNSDone(i)
		}
	}
	for i, c := range s.sCores {
		if st.sDone[i] {
			continue
		}
		c.Tick(cyc)
		if c.Done() {
			st.markSDone(i)
		}
	}
	for _, e := range s.engines {
		e.Tick(cyc)
	}
}

// tickMemLazy advances the memory domain at a visited edge. Delegator
// schedulers always tick (they are cheap when idle and they are the source
// of cross-component enqueues); channels tick only when their cached
// horizon has arrived or when an invalidation means new work may have
// been enqueued: an NS core's submission to that channel since the
// previous visited edge, an S-App core tick or engine action since then
// or cycle 0 (invalAll: any channel), or delegator events due this edge.
// Elided accounting for skipped edges is settled in bulk just before a
// component's next real tick. Tick order among ticked components matches the reference loop,
// and completion callbacks fire inline from the controller ticks.
func (s *System) tickMemLazy(cyc uint64, lz *memLazy, invalAll bool) {
	memNow := clock.ToMem(cyc)
	invalAll = invalAll || cyc == 0
	// An SD with events due this edge can enqueue into the controllers it
	// stripes over: the secure channel's sub-channels — and, when tree-top
	// splitting relocates blocks, the normal channels too — or, on-chip,
	// every direct channel. sdAllChans scopes the invalidation.
	sdDue := false
	if !invalAll {
		for _, sd := range s.sds {
			if sd.NextEvent(cyc-1) <= cyc {
				sdDue = true
				break
			}
		}
	}
	for _, sd := range s.sds {
		sd.Tick(cyc)
	}
	for i, ch := range s.chans {
		woken := s.submitted[i]
		s.submitted[i] = false
		if invalAll || woken || (sdDue && (i == 0 || s.sdAllChans)) || lz.next[i] <= cyc {
			if memNow > lz.set[i] {
				ch.Skip(memNow - lz.set[i])
			}
			ch.Tick(cyc)
			s.chanTicks++
			lz.set[i] = memNow + 1
			lz.next[i] = ch.NextEvent(cyc)
		}
	}
	// Refresh the global memory horizon: cached channel horizons plus
	// fresh delegator queries (their schedules may have gained events from
	// completions fired during the channel ticks above).
	next := slices.Min(lz.next)
	for _, sd := range s.sds {
		if t := sd.NextEvent(cyc); t < next {
			next = t
		}
	}
	lz.memNext = next
}

// settleMem brings every lazily-ticked component's per-cycle accounting
// current through CPU cycle cyc — required before a metrics sample or the
// final collect reads utilization integrals, since the reference loop
// would have ticked each controller on every edge up to cyc.
func (s *System) settleMem(cyc uint64, lz *memLazy) {
	target := clock.ToMem(cyc) + 1
	for i, ch := range s.chans {
		if target > lz.set[i] {
			ch.Skip(target - lz.set[i])
			lz.set[i] = target
		}
	}
}

// collect finalizes the Results after the run.
func (s *System) collect(cyc uint64) {
	s.res.Cycles = cyc
	if s.metrics != nil {
		// Close the final (usually partial) epoch so the timeline's
		// utilization integral matches the scalar aggregates exactly, then
		// snapshot the registry.
		s.metrics.Sample(cyc)
		s.res.Timeline = s.metrics.Timeline()
		s.res.Metrics = s.metrics.Dump()
	}
	if s.trace != nil {
		// Seal the trace and build the attribution report. Every site
		// records complete spans, so an access still in flight when the last
		// measured core retired leaves nothing open: its unfinished spans
		// are simply absent.
		s.res.Trace = s.trace.Finish()
	}
	for _, c := range s.nsCores {
		s.res.NSFinish = append(s.res.NSFinish, c.FinishedAt())
		s.res.NSInstrs = append(s.res.NSInstrs, c.Retired())
	}
	if len(s.sCores) > 0 && s.sCores[0].Done() {
		s.res.SAppFinish = s.sCores[0].FinishedAt()
	}
	for _, sd := range s.sds {
		s.res.SAppAll = append(s.res.SAppAll, sd.Stats())
	}
	if len(s.res.SAppAll) > 0 {
		s.res.SApp = s.res.SAppAll[0]
	}
	power := dram.DDR31600Power()
	elapsedMem := clock.ToMem(cyc)
	for c, ch := range s.chans {
		if l := ch.Link(); l != nil {
			for _, st := range []*bob.LinkStats{l.DownStats(), l.UpStats()} {
				lf := &s.res.LinkFaults[c]
				lf.Corrupted += st.Corrupted.Value()
				lf.Lost += st.Lost.Value()
				lf.Retransmits += st.Retransmits.Value()
				lf.GiveUps += st.GiveUps.Value()
				lf.RetryCycles += st.RetryCycles.Value()
			}
		}
		var hits, miss uint64
		for _, sub := range ch.SubChannels() {
			s.res.ChannelDataBusBusy[c] += sub.Channel().Stats().DataBus.Busy()
			s.res.ChannelEnergyUJ[c] += sub.Channel().Energy(power, elapsedMem).Total()
			hits += sub.Stats().RowHits.Value()
			miss += sub.Stats().RowMisses.Value()
		}
		if hits+miss > 0 {
			s.res.ChannelRowHitRate[c] = float64(hits) / float64(hits+miss)
		}
	}
}
