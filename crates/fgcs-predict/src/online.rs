//! Online (streaming) availability prediction for the service.
//!
//! The batch predictors in [`crate::predictor`] train on a complete
//! [`fgcs_testbed::trace::Trace`]. A server ingesting live sample
//! streams has no such artifact — events arrive one at a time and
//! queries may come at any moment. [`OnlineAvailabilityModel`] keeps
//! the sufficient statistics of the placement-grade
//! [`crate::predictor::MachineHourlyPredictor`] (per-machine event
//! counts, pooled per-(day-type, hour) counts, observed span)
//! incrementally, so its answers match a freshly fitted batch
//! predictor — the equivalence test below pins this, bit for bit.
//!
//! Per-machine state lives in one dense table in registration order, so
//! [`OnlineAvailabilityModel::place`] ranks the whole fleet in a single
//! linear pass; everything about a prediction window that does not
//! depend on the machine is worked out once per call, as the window's
//! slices, and one `score` function — shared by every prediction entry
//! point — applies them to a row. The pass's answer is remembered until
//! the next write, so repeating a placement costs a key compare.

use std::collections::BTreeMap;

use fgcs_testbed::calendar::{day_index, day_type, hour_of_day, DayType, SECS_PER_DAY};

/// One registered machine's row of the placement table.
#[derive(Debug, Clone)]
struct MachineEntry {
    id: u32,
    /// Whether the machine may host a guest right now, as last published
    /// through [`OnlineAvailabilityModel::set_harvestable`]. Only
    /// [`OnlineAvailabilityModel::place`] reads it.
    harvestable: bool,
    /// Unavailability events recorded. Registration with zero events
    /// matters: the machine count normalizes the pooled shape.
    events: u64,
    /// `(day-type, hour)` event counts at `idx * 24 + hour`. Integers,
    /// converted at use (`as f64` is exact), so a row stays ~200 bytes.
    hours: [u32; 48],
}

/// Streaming sufficient statistics for the factorized
/// `λ(m, d, h) = rate_m · shape(d, h)` model.
///
/// Matches [`crate::predictor::MachineHourlyPredictor`] fitted with
/// `train_end` equal to this model's observed horizon, provided the
/// same machines are registered and the horizon does not exceed the
/// trace's nominal span (the batch fit clamps its day count to
/// `meta.days`; a live stream has no such bound).
#[derive(Debug, Clone, Default)]
pub struct OnlineAvailabilityModel {
    start_weekday: u8,
    /// Every registered machine, in registration order.
    table: Vec<MachineEntry>,
    /// Machine id → index into `table`.
    slots: BTreeMap<u32, u32>,
    hour_counts: [[f64; 24]; 2],
    total_events: u64,
    horizon_t: u64,
    /// Whole observed days (`0..horizon_t / SECS_PER_DAY`) by day type,
    /// kept in step with the horizon by
    /// [`OnlineAvailabilityModel::observe_time`].
    days_of_type: [u64; 2],
    /// The last [`OnlineAvailabilityModel::place`] answer, keyed by its
    /// `(t, window)`. Every `&mut self` method except `place` clears it,
    /// so it is never older than the state it was computed from.
    last_place: Option<PlaceMemo>,
}

/// A [`OnlineAvailabilityModel::place`] answer and the `(t, window)` it
/// was asked for.
type PlaceMemo = ((u64, u64), Option<(u32, f64)>);

/// Pseudo-event count weighting the pooled shape in
/// [`OnlineAvailabilityModel::predict_machine`]: a machine's own hourly
/// profile earns weight `n / (n + BLEND_PSEUDO_EVENTS)` after `n`
/// events, so sparse machines lean on the fleet-wide shape and
/// well-observed ones speak for themselves.
const BLEND_PSEUDO_EVENTS: f64 = 12.0;

fn is_weekend(day: u64, start_weekday: u8) -> usize {
    (day_type(day, start_weekday) == DayType::Weekend) as usize
}

/// `[weekdays, weekend days]` among days `0..days`. Every whole week
/// holds five and two whatever day it starts on, so only the last
/// partial week is walked — a peer-supplied timestamp years ahead costs
/// the same as the next sample.
fn day_tally(days: u64, start_weekday: u8) -> [u64; 2] {
    let weeks = days / 7;
    let mut tally = [weeks * 5, weeks * 2];
    for day in weeks * 7..days {
        tally[is_weekend(day, start_weekday)] += 1;
    }
    tally
}

/// One hour-aligned piece of a prediction window, with every factor of
/// its event rate that does not depend on the machine.
#[derive(Clone, Copy)]
struct Slice {
    /// Index into [`MachineEntry::hours`].
    cell: usize,
    /// Seconds of history observed in this hour of this day type.
    secs: f64,
    /// The pooled shape `hour_rate / overall_rate` of this cell.
    pooled: f64,
    /// Seconds of the window that fall in this piece.
    len: f64,
}

/// The slices of a window `[t, t + window)` against one model state, in
/// time order. `predict_machine` consumes them as they come; `place`
/// collects them once and replays them for every candidate.
struct WindowSlices<'a> {
    model: &'a OnlineAvailabilityModel,
    machines_f: f64,
    overall_rate: f64,
    cursor: u64,
    end: u64,
}

impl Iterator for WindowSlices<'_> {
    type Item = Slice;

    fn next(&mut self) -> Option<Slice> {
        let (model, cursor) = (self.model, self.cursor);
        if cursor >= self.end {
            return None;
        }
        let idx = is_weekend(day_index(cursor), model.start_weekday);
        let hour = hour_of_day(cursor) as usize;
        let hour_end = cursor - (cursor % 3600) + 3600;
        let days = model.days_of_type[idx] as f64;
        let machine_secs = days * 3600.0 * self.machines_f;
        let hour_rate = if machine_secs > 0.0 {
            model.hour_counts[idx][hour] / machine_secs
        } else {
            0.0
        };
        self.cursor = hour_end;
        Some(Slice {
            cell: idx * 24 + hour,
            secs: days * 3600.0,
            pooled: if self.overall_rate > 0.0 {
                hour_rate / self.overall_rate
            } else {
                1.0
            },
            len: (hour_end.min(self.end) - cursor) as f64,
        })
    }
}

/// Survival probability of one machine over a window's slices, `span`
/// seconds of history behind it. With `blend` the machine's own hourly
/// profile is mixed in at weight `n / (n + BLEND_PSEUDO_EVENTS)`;
/// without it the weight is zero and the sum reduces exactly
/// (`0·x + 1·rate·pooled`) to the factorized model.
///
/// This is the one place a probability is computed. The operations and
/// their order are those of the per-machine loop it replaced, so results
/// are bit-identical to it — the oracle tests below hold the two
/// together.
fn score(span: f64, e: &MachineEntry, blend: bool, slices: impl Iterator<Item = Slice>) -> f64 {
    let n = e.events as f64;
    let rate = n / span;
    let weight = if blend {
        n / (n + BLEND_PSEUDO_EVENTS)
    } else {
        0.0
    };
    let pooled_rate = (1.0 - weight) * rate;
    let mut expected = 0.0;
    for s in slices {
        let own_rate = if s.secs > 0.0 {
            e.hours[s.cell] as f64 / s.secs
        } else {
            0.0
        };
        let lambda = weight * own_rate + pooled_rate * s.pooled;
        expected += lambda * s.len;
    }
    (-expected).exp()
}

impl OnlineAvailabilityModel {
    /// A fresh model. `start_weekday` anchors the weekday/weekend
    /// calendar, as in `TraceMeta::start_weekday`.
    pub fn new(start_weekday: u8) -> Self {
        OnlineAvailabilityModel {
            start_weekday,
            ..Default::default()
        }
    }

    /// The machine's row, registered on first sight. A new row is not
    /// harvestable until someone says so. Every write to a row goes
    /// through here, so this is where the placement memo is dropped.
    fn entry_mut(&mut self, machine: u32) -> &mut MachineEntry {
        self.last_place = None;
        let next = self.table.len() as u32;
        let slot = *self.slots.entry(machine).or_insert(next);
        if slot == next {
            self.table.push(MachineEntry {
                id: machine,
                harvestable: false,
                events: 0,
                hours: [0; 48],
            });
        }
        &mut self.table[slot as usize]
    }

    fn entry(&self, machine: u32) -> Option<&MachineEntry> {
        self.slots.get(&machine).map(|&s| &self.table[s as usize])
    }

    /// Seconds of history a rate is taken over.
    fn span(&self) -> f64 {
        self.horizon_t.max(1) as f64
    }

    fn slices(&self, t: u64, window: u64) -> WindowSlices<'_> {
        let machines_f = self.table.len().max(1) as f64;
        WindowSlices {
            model: self,
            machines_f,
            overall_rate: self.total_events as f64 / (self.span() * machines_f),
            cursor: t,
            end: t + window,
        }
    }

    /// Registers a machine (idempotent). Machines with zero events
    /// still count toward the pooled-shape normalization, exactly as
    /// `meta.machines` does in the batch fit.
    pub fn ensure_machine(&mut self, machine: u32) {
        self.entry_mut(machine);
    }

    /// Publishes whether `machine` may host a guest right now
    /// (registering it if need be). [`OnlineAvailabilityModel::place`]
    /// considers exactly the machines whose latest publication was
    /// `true`.
    pub fn set_harvestable(&mut self, machine: u32, harvestable: bool) {
        self.entry_mut(machine).harvestable = harvestable;
    }

    /// The last published harvestable flag, `None` for an unknown
    /// machine.
    pub fn harvestable(&self, machine: u32) -> Option<bool> {
        self.entry(machine).map(|e| e.harvestable)
    }

    /// Advances the observed horizon — the streaming analogue of
    /// `train_end`. Call with every ingested sample timestamp.
    pub fn observe_time(&mut self, t: u64) {
        self.last_place = None;
        if t / SECS_PER_DAY > self.horizon_t / SECS_PER_DAY {
            self.days_of_type = day_tally(t / SECS_PER_DAY, self.start_weekday);
        }
        self.horizon_t = self.horizon_t.max(t);
    }

    /// Records the *start* of an unavailability occurrence.
    pub fn record_event(&mut self, machine: u32, start: u64) {
        let idx = is_weekend(day_index(start), self.start_weekday);
        let hour = hour_of_day(start) as usize;
        let e = self.entry_mut(machine);
        e.events += 1;
        let cell = &mut e.hours[idx * 24 + hour];
        *cell = cell.saturating_add(1);
        self.hour_counts[idx][hour] += 1.0;
        self.total_events += 1;
    }

    /// Machines registered so far.
    pub fn machines(&self) -> usize {
        self.table.len()
    }

    /// Observed horizon (max sample timestamp seen).
    pub fn horizon(&self) -> u64 {
        self.horizon_t
    }

    /// Total events recorded.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Probability that `machine` stays available throughout
    /// `[t, t + window)` under the factorized Poisson model, using
    /// everything streamed so far. An unknown machine is treated as
    /// event-free (probability 1), like an out-of-range machine id in
    /// the batch predictor.
    pub fn predict(&self, machine: u32, t: u64, window: u64) -> f64 {
        match self.entry(machine) {
            Some(e) => score(self.span(), e, false, self.slices(t, window)),
            None => 1.0,
        }
    }

    /// Like [`OnlineAvailabilityModel::predict`], but resolved *per
    /// machine*: the event-rate integral blends this machine's own
    /// `(day-type, hour)` profile with the pooled factorized model,
    /// weighted `n / (n + BLEND_PSEUDO_EVENTS)` by the machine's event
    /// count. The factorized model can only rank machines by overall
    /// rate — two fleets busy at *opposite hours* look identical to it
    /// — while this one learns each machine's schedule, which is what
    /// placement-grade predictions need (§7: "different patterns of
    /// host workloads").
    pub fn predict_machine(&self, machine: u32, t: u64, window: u64) -> f64 {
        match self.entry(machine) {
            Some(e) => score(self.span(), e, true, self.slices(t, window)),
            None => 1.0,
        }
    }

    /// The harvestable machine most likely to stay available throughout
    /// `[t, t + window)` and its [`predict_machine`] probability, in
    /// one pass over the table; the lowest id wins ties. `None` when no
    /// machine is harvestable.
    ///
    /// Asked again with the same `(t, window)` and nothing written in
    /// between, it returns the remembered answer without the pass — the
    /// service asks at `t = horizon`, and most of its placements land
    /// between two ingest batches. That is why it takes `&mut self`.
    ///
    /// [`predict_machine`]: OnlineAvailabilityModel::predict_machine
    pub fn place(&mut self, t: u64, window: u64) -> Option<(u32, f64)> {
        if let Some((key, best)) = self.last_place {
            if key == (t, window) {
                return best;
            }
        }
        let span = self.span();
        let slices: Vec<Slice> = self.slices(t, window).collect();
        let mut best: Option<(u32, f64)> = None;
        for e in self.table.iter().filter(|e| e.harvestable) {
            let p = score(span, e, true, slices.iter().copied());
            if best.is_none_or(|(id, bp)| p > bp || (p == bp && e.id < id)) {
                best = Some((e.id, p));
            }
        }
        self.last_place = Some(((t, window), best));
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{AvailabilityPredictor, MachineHourlyPredictor};
    use fgcs_testbed::{run_testbed, TestbedConfig};
    use proptest::prelude::*;

    /// The model as it stood before the dense table and the shared
    /// `score`: two parallel maps and a prediction loop that re-derives
    /// the pooled shape and the calendar tally on every call. The method
    /// bodies are kept verbatim as the oracle the table is held to, bit
    /// for bit.
    #[derive(Debug, Clone, Default)]
    struct ReferenceModel {
        start_weekday: u8,
        events: BTreeMap<u32, u64>,
        hour_counts: [[f64; 24]; 2],
        machine_hours: BTreeMap<u32, [[f64; 24]; 2]>,
        total_events: u64,
        horizon_t: u64,
    }

    impl ReferenceModel {
        fn new(start_weekday: u8) -> Self {
            ReferenceModel {
                start_weekday,
                ..Default::default()
            }
        }

        fn ensure_machine(&mut self, machine: u32) {
            self.events.entry(machine).or_insert(0);
        }

        fn observe_time(&mut self, t: u64) {
            self.horizon_t = self.horizon_t.max(t);
        }

        fn record_event(&mut self, machine: u32, start: u64) {
            *self.events.entry(machine).or_insert(0) += 1;
            let idx = (day_type(day_index(start), self.start_weekday) == DayType::Weekend) as usize;
            let hour = ((start % SECS_PER_DAY) / 3600) as usize;
            self.hour_counts[idx][hour] += 1.0;
            self.machine_hours.entry(machine).or_insert([[0.0; 24]; 2])[idx][hour] += 1.0;
            self.total_events += 1;
        }

        fn predict(&self, machine: u32, t: u64, window: u64) -> f64 {
            let span = self.horizon_t.max(1) as f64;
            let rate = match self.events.get(&machine) {
                Some(&n) => n as f64 / span,
                None => 0.0,
            };

            // Same-type day tally over the observed span, mirroring the
            // batch fit's `train_days` loop.
            let mut hours_of_type = [0.0f64; 2];
            for day in 0..self.horizon_t / SECS_PER_DAY {
                let idx = (day_type(day, self.start_weekday) == DayType::Weekend) as usize;
                hours_of_type[idx] += 1.0;
            }
            let machines_f = self.events.len().max(1) as f64;
            let overall_rate = self.total_events as f64 / (span * machines_f);

            let shape = |idx: usize, hour: usize| -> f64 {
                let machine_secs = hours_of_type[idx] * 3600.0 * machines_f;
                let hour_rate = if machine_secs > 0.0 {
                    self.hour_counts[idx][hour] / machine_secs
                } else {
                    0.0
                };
                if overall_rate > 0.0 {
                    hour_rate / overall_rate
                } else {
                    1.0
                }
            };

            let mut expected = 0.0;
            let mut cursor = t;
            let end = t + window;
            while cursor < end {
                let idx =
                    (day_type(day_index(cursor), self.start_weekday) == DayType::Weekend) as usize;
                let hour = ((cursor % SECS_PER_DAY) / 3600) as usize;
                let hour_end = cursor - (cursor % 3600) + 3600;
                let slice = hour_end.min(end) - cursor;
                expected += rate * shape(idx, hour) * slice as f64;
                cursor = hour_end;
            }
            (-expected).exp()
        }

        fn predict_machine(&self, machine: u32, t: u64, window: u64) -> f64 {
            let n = match self.events.get(&machine) {
                Some(&n) => n as f64,
                None => return 1.0,
            };
            let span = self.horizon_t.max(1) as f64;
            let rate = n / span;
            let own = self.machine_hours.get(&machine);
            let weight = n / (n + BLEND_PSEUDO_EVENTS);

            let mut hours_of_type = [0.0f64; 2];
            for day in 0..self.horizon_t / SECS_PER_DAY {
                let idx = (day_type(day, self.start_weekday) == DayType::Weekend) as usize;
                hours_of_type[idx] += 1.0;
            }
            let machines_f = self.events.len().max(1) as f64;
            let overall_rate = self.total_events as f64 / (span * machines_f);

            let pooled_shape = |idx: usize, hour: usize| -> f64 {
                let machine_secs = hours_of_type[idx] * 3600.0 * machines_f;
                let hour_rate = if machine_secs > 0.0 {
                    self.hour_counts[idx][hour] / machine_secs
                } else {
                    0.0
                };
                if overall_rate > 0.0 {
                    hour_rate / overall_rate
                } else {
                    1.0
                }
            };
            let own_rate = |idx: usize, hour: usize| -> f64 {
                let secs = hours_of_type[idx] * 3600.0;
                match own {
                    Some(counts) if secs > 0.0 => counts[idx][hour] / secs,
                    _ => 0.0,
                }
            };

            let mut expected = 0.0;
            let mut cursor = t;
            let end = t + window;
            while cursor < end {
                let idx =
                    (day_type(day_index(cursor), self.start_weekday) == DayType::Weekend) as usize;
                let hour = ((cursor % SECS_PER_DAY) / 3600) as usize;
                let hour_end = cursor - (cursor % 3600) + 3600;
                let slice = hour_end.min(end) - cursor;
                let lambda =
                    weight * own_rate(idx, hour) + (1.0 - weight) * rate * pooled_shape(idx, hour);
                expected += lambda * slice as f64;
                cursor = hour_end;
            }
            (-expected).exp()
        }

        /// The scan `Place` used to run: harvestable machines in id
        /// order, first strictly-better probability wins.
        fn place(
            &self,
            harvestable: &BTreeMap<u32, bool>,
            t: u64,
            window: u64,
        ) -> Option<(u32, f64)> {
            let mut best: Option<(u32, f64)> = None;
            for (&id, _) in harvestable.iter().filter(|(_, &h)| h) {
                let p = self.predict_machine(id, t, window);
                if best.is_none_or(|(_, bp)| p > bp) {
                    best = Some((id, p));
                }
            }
            best
        }
    }

    /// One step of a streamed history, applied to both models alike.
    #[derive(Debug, Clone)]
    enum Op {
        Register(u32),
        Observe(u64),
        Event(u32, u64),
        Publish(u32, bool),
    }

    /// The table model, the reference, and the flags published so far.
    struct Pair {
        online: OnlineAvailabilityModel,
        reference: ReferenceModel,
        flags: BTreeMap<u32, bool>,
    }

    impl Pair {
        fn new(start_weekday: u8) -> Self {
            Pair {
                online: OnlineAvailabilityModel::new(start_weekday),
                reference: ReferenceModel::new(start_weekday),
                flags: BTreeMap::new(),
            }
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Register(m) => {
                    self.online.ensure_machine(m);
                    self.reference.ensure_machine(m);
                }
                Op::Observe(t) => {
                    self.online.observe_time(t);
                    self.reference.observe_time(t);
                }
                Op::Event(m, at) => {
                    self.online.record_event(m, at);
                    self.reference.record_event(m, at);
                }
                Op::Publish(m, h) => {
                    // The service registers a machine before it ever
                    // publishes a flag for it.
                    self.online.set_harvestable(m, h);
                    self.reference.ensure_machine(m);
                    self.flags.insert(m, h);
                }
            }
        }

        /// Every answer of the table model equals the reference's, bit
        /// for bit, for every known machine and one unknown id.
        fn check(&mut self, t: u64, window: u64) -> Result<(), String> {
            let unknown = self.reference.events.keys().max().map_or(0, |m| m + 1);
            for &m in self.reference.events.keys().chain([&unknown]) {
                let (a, b) = (
                    self.online.predict_machine(m, t, window),
                    self.reference.predict_machine(m, t, window),
                );
                if a.to_bits() != b.to_bits() {
                    return Err(format!("predict_machine({m}, {t}, {window}): {a} vs {b}"));
                }
                let (a, b) = (
                    self.online.predict(m, t, window),
                    self.reference.predict(m, t, window),
                );
                if a.to_bits() != b.to_bits() {
                    return Err(format!("predict({m}, {t}, {window}): {a} vs {b}"));
                }
            }
            self.check_place(t, window)
        }

        /// `place` equals the reference's scan, bit for bit, asked twice
        /// in a row: the first answer may come from the memo an earlier
        /// call left, the second must.
        fn check_place(&mut self, t: u64, window: u64) -> Result<(), String> {
            let want = self
                .reference
                .place(&self.flags, t, window)
                .map(|(m, p)| (m, p.to_bits()));
            for ask in ["first", "repeated"] {
                let got = self.online.place(t, window).map(|(m, p)| (m, p.to_bits()));
                if got != want {
                    return Err(format!("{ask} place({t}, {window}): {got:?} vs {want:?}"));
                }
            }
            Ok(())
        }
    }

    /// Windows that start and end on, just before and just after the
    /// boundaries the slicing cares about: the hour, midnight, and the
    /// Friday→Saturday and Sunday→Monday changes of day type.
    fn boundary_windows(start_weekday: u8) -> Vec<(u64, u64)> {
        // Day index of the first Saturday at or after day 0.
        let saturday = (12 - u64::from(start_weekday)) % 7;
        let mut out = Vec::new();
        for day in [0, saturday, saturday + 2, saturday + 7] {
            let midnight = day * SECS_PER_DAY;
            for t in [
                midnight.saturating_sub(1),
                midnight,
                midnight + 3599,
                midnight + 3600,
            ] {
                for w in [
                    1,
                    2,
                    3600,
                    3601,
                    2 * 3600 + 17,
                    SECS_PER_DAY,
                    3 * SECS_PER_DAY + 5,
                ] {
                    out.push((t, w));
                }
            }
        }
        out
    }

    prop_compose! {
        /// A streamed history over up to ~130 days: machine ids from a
        /// sparse range registered in no particular order, events
        /// clustered in a few hours so machines share cells (and tie),
        /// horizon advances interleaved with the events, and flags
        /// flipped as the service would.
        fn arb_history()(
            start_weekday in 0u8..7,
            days in 0u64..130,
            ops in prop::collection::vec((0u8..8, 0u32..9, 0u64..1_000_000, 0u8..4), 1..120),
        ) -> (u8, Vec<Op>) {
            let span = days * SECS_PER_DAY + 1;
            let ops = ops
                .into_iter()
                .map(|(kind, m, r, hour)| {
                    // Ids spread out and non-monotone in arrival order.
                    let id = (m * 7919) % 23;
                    // A coarse grid of event times, so separate machines
                    // collect identical histories now and then.
                    let at = (r % span) / SECS_PER_DAY * SECS_PER_DAY + u64::from(hour) * 7 * 3600;
                    match kind {
                        0 => Op::Register(id),
                        1 | 2 => Op::Observe(r % span),
                        3 => Op::Publish(id, r % 3 != 0),
                        _ => Op::Event(id, at),
                    }
                })
                .collect();
            (start_weekday, ops)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn table_and_scorer_equal_the_reference_bit_for_bit(
            (start_weekday, ops) in arb_history(),
            probes in prop::collection::vec((0u64..140 * SECS_PER_DAY, 1u64..6 * SECS_PER_DAY), 1..6),
            (t0, w0) in (0u64..140 * SECS_PER_DAY, 1u64..2 * SECS_PER_DAY),
        ) {
            let mut pair = Pair::new(start_weekday);
            for (i, op) in ops.iter().enumerate() {
                pair.apply(op);
                // The placement memo never outlives a write. The memo
                // holds one key, so the probes swap order every op: the
                // first one asked after an op is the one the memo held
                // when the op landed. `(t0, w0)` keeps its key whatever
                // the op, so a mutator that forgot to clear answers stale
                // there; `(horizon, 4 h)` is the probe the service asks.
                let h = pair.online.horizon();
                let mut probes = [(t0, w0), (h, 4 * 3600)];
                if i % 2 == 1 {
                    probes.reverse();
                }
                for (t, w) in probes {
                    if let Err(e) = pair.check_place(t, w) {
                        prop_assert!(false, "after op {i}: {e}");
                    }
                }
                // Mid-stream checks catch a day tally that lags the
                // horizon; `t` ranges before, at and past it.
                if i % 16 == 15 {
                    for (t, w) in [(h, 1), (h / 2, 1800), (h + 3 * 3600, 4 * 3600)] {
                        if let Err(e) = pair.check(t, w) {
                            prop_assert!(false, "after op {i}: {e}");
                        }
                    }
                }
            }
            prop_assert_eq!(pair.online.horizon(), pair.reference.horizon_t);
            prop_assert_eq!(pair.online.total_events(), pair.reference.total_events);
            prop_assert_eq!(pair.online.machines(), pair.reference.events.len());
            for &(t, w) in probes.iter().chain(&boundary_windows(start_weekday)) {
                if let Err(e) = pair.check(t, w) {
                    prop_assert!(false, "{e}");
                }
            }
        }
    }

    #[test]
    fn day_tally_counts_like_the_calendar_loop() {
        for start_weekday in 0..7u8 {
            let mut looped = [0u64; 2];
            for days in 0..200u64 {
                assert_eq!(
                    day_tally(days, start_weekday),
                    looped,
                    "start {start_weekday}, {days} days"
                );
                looped[is_weekend(days, start_weekday)] += 1;
            }
        }
        // Far-future timestamps are arithmetic, not a loop.
        let [wd, we] = day_tally(u64::MAX / SECS_PER_DAY, 3);
        assert_eq!(wd + we, u64::MAX / SECS_PER_DAY);
    }

    #[test]
    fn place_breaks_exact_ties_toward_the_lowest_id() {
        // Three machines with identical histories, registered highest
        // id first: the table's order must not leak into the answer.
        let mut pair = Pair::new(0);
        for m in [9u32, 4, 6] {
            pair.apply(&Op::Publish(m, true));
        }
        pair.apply(&Op::Observe(30 * SECS_PER_DAY));
        for day in 0..20u64 {
            for m in [6u32, 9, 4] {
                pair.apply(&Op::Event(m, day * SECS_PER_DAY + 10 * 3600));
            }
        }
        let (t, w) = (30 * SECS_PER_DAY + 9 * 3600, 4 * 3600);
        let (m, p) = pair.online.place(t, w).expect("three candidates");
        assert_eq!(m, 4, "lowest id among exact ties");
        assert_eq!(p.to_bits(), pair.online.predict_machine(9, t, w).to_bits());
        pair.check(t, w).unwrap();
        // Masking the winner hands the tie to the next-lowest id; an
        // empty mask places nowhere.
        pair.apply(&Op::Publish(4, false));
        assert_eq!(pair.online.place(t, w).map(|b| b.0), Some(6));
        pair.check(t, w).unwrap();
        for m in [6u32, 9] {
            pair.apply(&Op::Publish(m, false));
        }
        assert_eq!(pair.online.place(t, w), None);
        assert_eq!(pair.online.harvestable(9), Some(false));
        assert_eq!(pair.online.harvestable(5), None);
    }

    #[test]
    fn registration_alone_does_not_make_a_machine_placeable() {
        let mut online = OnlineAvailabilityModel::new(0);
        online.ensure_machine(1);
        online.record_event(2, 3600);
        assert_eq!(online.place(0, 3600), None);
        online.set_harvestable(2, true);
        assert_eq!(online.place(0, 3600).map(|b| b.0), Some(2));
    }

    #[test]
    fn matches_batch_machine_hourly_predictor_bit_for_bit() {
        let cfg = TestbedConfig::tiny();
        let trace = run_testbed(&cfg);
        let train_end = 3 * SECS_PER_DAY; // inside the 4-day span

        let mut batch = MachineHourlyPredictor::default();
        batch.fit(&trace, train_end);

        let mut online = OnlineAvailabilityModel::new(trace.meta.start_weekday);
        for m in 0..trace.meta.machines {
            online.ensure_machine(m);
        }
        online.observe_time(train_end);
        for r in trace.records.iter().filter(|r| r.start < train_end) {
            online.record_event(r.machine, r.start);
        }

        for m in 0..trace.meta.machines {
            for t in [train_end, train_end + 7 * 3600, train_end + 20 * 3600] {
                for w in [600u64, 1800, 3600, 8 * 3600] {
                    let a = batch.predict(m, t, w);
                    let b = online.predict(m, t, w);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "machine {m} t {t} w {w}: batch {a} online {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_from_records_matches_streamed_model_bit_for_bit() {
        // The service snapshot restore path does not persist this model;
        // it replays (machine, start) pairs from the restored records and
        // re-advances the horizon. That rebuild must be indistinguishable
        // from the model that streamed the events live.
        let cfg = TestbedConfig::tiny();
        let trace = run_testbed(&cfg);
        let horizon = trace.records.iter().map(|r| r.start).max().unwrap() + 900;

        let mut live = OnlineAvailabilityModel::new(trace.meta.start_weekday);
        for m in 0..trace.meta.machines {
            live.ensure_machine(m);
        }
        // Interleave time advances and events, as live ingest does.
        for r in &trace.records {
            live.observe_time(r.start);
            live.record_event(r.machine, r.start);
        }
        live.observe_time(horizon);

        let mut rebuilt = OnlineAvailabilityModel::new(trace.meta.start_weekday);
        for m in 0..trace.meta.machines {
            rebuilt.ensure_machine(m);
        }
        for r in &trace.records {
            rebuilt.record_event(r.machine, r.start);
        }
        rebuilt.observe_time(horizon);

        assert_eq!(live.total_events(), rebuilt.total_events());
        assert_eq!(live.horizon(), rebuilt.horizon());
        assert_eq!(live.machines(), rebuilt.machines());
        for m in 0..trace.meta.machines {
            for w in [600u64, 3600, 8 * 3600] {
                let a = live.predict(m, horizon, w);
                let b = rebuilt.predict(m, horizon, w);
                assert_eq!(a.to_bits(), b.to_bits(), "machine {m} w {w}");
            }
        }
    }

    #[test]
    fn unknown_machine_predicts_certainty() {
        let online = OnlineAvailabilityModel::new(0);
        assert_eq!(online.predict(99, 0, 3600), 1.0);
    }

    #[test]
    fn per_machine_prediction_separates_opposite_shifts() {
        // Two machines, identical event totals, opposite schedules: the
        // pooled factorized model cannot tell them apart; the
        // per-machine blend must.
        let mut online = OnlineAvailabilityModel::new(0);
        online.ensure_machine(0);
        online.ensure_machine(1);
        online.observe_time(14 * SECS_PER_DAY);
        for day in 0..14u64 {
            online.record_event(0, day * SECS_PER_DAY + 10 * 3600); // day shift
            online.record_event(1, day * SECS_PER_DAY + 22 * 3600); // night shift
        }
        let at = 14 * SECS_PER_DAY + 9 * 3600 + 1800; // 9:30 AM, weekday
        let window = 2 * 3600;
        let pooled0 = online.predict(0, at, window);
        let pooled1 = online.predict(1, at, window);
        assert_eq!(
            pooled0.to_bits(),
            pooled1.to_bits(),
            "the factorized model is blind to per-machine schedules"
        );
        let m0 = online.predict_machine(0, at, window);
        let m1 = online.predict_machine(1, at, window);
        assert!(
            m0 + 0.1 < m1,
            "day-shift machine must look risky at 9:30 AM: {m0} vs {m1}"
        );
        // And the ranking flips at night.
        let at_night = 14 * SECS_PER_DAY + 21 * 3600 + 1800;
        let n0 = online.predict_machine(0, at_night, window);
        let n1 = online.predict_machine(1, at_night, window);
        assert!(
            n1 + 0.1 < n0,
            "night-shift machine risky at 9:30 PM: {n1} vs {n0}"
        );
    }

    #[test]
    fn sparse_machines_shrink_to_the_pooled_model() {
        let mut online = OnlineAvailabilityModel::new(0);
        online.ensure_machine(0);
        online.ensure_machine(1);
        online.observe_time(14 * SECS_PER_DAY);
        for day in 0..14u64 {
            online.record_event(0, day * SECS_PER_DAY + 10 * 3600);
        }
        // One event at hour 10: the lone-event machine's blend should
        // sit close to the pooled prediction, not swing to its own
        // (noisy) profile.
        online.record_event(1, 10 * 3600);
        let at = 14 * SECS_PER_DAY + 10 * 3600;
        let pooled = online.predict(1, at, 3600);
        let blended = online.predict_machine(1, at, 3600);
        assert!(
            (blended - pooled).abs() < 0.05,
            "1 event of evidence must barely move the blend: pooled {pooled} blended {blended}"
        );
        // A machine with no events at all predicts certainty, like the
        // pooled model does for an unknown machine.
        assert_eq!(online.predict_machine(99, at, 3600), 1.0);
    }

    #[test]
    fn events_lower_the_probability() {
        let mut online = OnlineAvailabilityModel::new(0);
        online.ensure_machine(0);
        online.ensure_machine(1);
        online.observe_time(7 * SECS_PER_DAY);
        for day in 0..5u64 {
            online.record_event(0, day * SECS_PER_DAY + 10 * 3600);
        }
        let busy = online.predict(0, 7 * SECS_PER_DAY + 9 * 3600, 2 * 3600);
        let quiet = online.predict(1, 7 * SECS_PER_DAY + 9 * 3600, 2 * 3600);
        assert!(busy < quiet, "busy {busy} quiet {quiet}");
        assert!((0.0..=1.0).contains(&busy));
        assert_eq!(quiet, 1.0);
    }
}
