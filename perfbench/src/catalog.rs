//! The loop catalogue: every corpus loop compiled and fingerprinted, the
//! reference costs that make a loop eligible, and the seeded draws that
//! turn a `--seed` into each workload's inputs.
//!
//! Reference costs were measured serially on the 2-core reference host
//! with `strsum-perfbench survey` (median of four passes, default
//! budget); the README gives the command that regenerates them. A loop
//! without a reference cost never enters a gadget workload, so no draw
//! can pick a loop that is slow enough for the wall clock to bind.

use std::collections::BTreeMap;

use strsum_core::{loop_fingerprint, SynthesisConfig};
use strsum_corpus::{corpus, fingerprint_hash, stateful_corpus};
use strsum_ir::Func;

use crate::util::{median, Rng};
use crate::Plan;

/// Serial `summarize_loop` seconds of every gadget-lane corpus loop that
/// summarised within 4.6 s (median of four survey passes). Every loop
/// here is at least 13x below the default 60 s wall budget.
pub const REFERENCE_SECS: &[(&str, f64)] = &[
    ("bash_02", 2.785),
    ("bash_03", 2.914),
    ("bash_04", 2.013),
    ("bash_05", 0.531),
    ("bash_06", 2.265),
    ("bash_07", 4.076),
    ("bash_08", 4.321),
    ("bash_09", 1.914),
    ("diff_02", 2.328),
    ("diff_03", 0.557),
    ("diff_04", 4.256),
    ("awk_01", 2.596),
    ("awk_02", 2.230),
    ("awk_03", 3.900),
    ("git_02", 2.640),
    ("git_05", 2.192),
    ("git_06", 1.829),
    ("git_07", 2.197),
    ("git_08", 0.514),
    ("git_09", 0.506),
    ("git_10", 2.218),
    ("git_13", 4.058),
    ("git_14", 3.899),
    ("git_20", 1.649),
    ("git_21", 2.863),
    ("git_22", 2.370),
    ("git_24", 2.723),
    ("git_25", 1.910),
    ("git_26", 1.944),
    ("grep_02", 2.135),
    ("m4_02", 2.346),
    ("patch_02", 2.604),
    ("patch_03", 2.314),
    ("patch_04", 3.374),
    ("patch_05", 2.253),
    ("patch_06", 1.960),
    ("patch_07", 3.910),
    ("patch_08", 3.928),
    ("patch_09", 0.534),
    ("patch_12", 3.003),
    ("ssh_02", 2.053),
    ("tar_01", 2.674),
    ("tar_03", 4.003),
    ("tar_04", 4.072),
    ("tar_05", 1.857),
    ("tar_06", 2.006),
    ("tar_07", 3.860),
    ("tar_08", 0.524),
    ("tar_09", 0.515),
    ("tar_13", 1.603),
    ("libosip_03", 2.217),
    ("libosip_04", 2.004),
    ("libosip_05", 2.115),
    ("libosip_06", 1.869),
    ("libosip_07", 3.944),
    ("libosip_08", 0.548),
    ("wget_01", 2.666),
    ("wget_02", 2.229),
    ("wget_03", 2.026),
    ("wget_04", 3.173),
    ("wget_05", 4.051),
    ("wget_06", 0.541),
];

/// One compiled corpus loop.
pub struct Loop {
    pub id: String,
    pub source: String,
    pub func: Func,
    /// `fingerprint_hash` of the loop's semantic fingerprint: loops with
    /// equal classes share one store entry.
    pub class: u64,
    pub stateful: bool,
    /// Reference synthesis seconds (gadget-lane loops that qualify).
    pub reference: Option<f64>,
}

/// A fingerprint class of gadget-lane loops, all with reference costs.
#[derive(Debug, Clone)]
pub struct Class {
    pub key: u64,
    pub members: Vec<usize>,
    /// Median reference cost of the members, seconds.
    pub cost: f64,
}

pub struct Catalog {
    pub loops: Vec<Loop>,
}

impl Catalog {
    /// Compiles and fingerprints the whole corpus (Table 3 loops, then
    /// the stateful companion corpus).
    pub fn build() -> Result<Catalog, String> {
        let max_ex_size = SynthesisConfig::default().max_ex_size;
        let reference: BTreeMap<&str, f64> = REFERENCE_SECS.iter().copied().collect();
        let entries = corpus()
            .into_iter()
            .map(|e| (e, false))
            .chain(stateful_corpus().into_iter().map(|e| (e, true)));
        let mut loops = Vec::new();
        for (entry, stateful) in entries {
            let func = strsum_cfront::compile_one(&entry.source)
                .map_err(|e| format!("{} does not compile: {e:?}", entry.id))?;
            let class = fingerprint_hash(&loop_fingerprint(&func, max_ex_size));
            loops.push(Loop {
                reference: reference.get(entry.id.as_str()).copied(),
                id: entry.id,
                source: entry.source,
                func,
                class,
                stateful,
            });
        }
        Ok(Catalog { loops })
    }

    pub fn index(&self, id: &str) -> Option<usize> {
        self.loops.iter().position(|l| l.id == id)
    }

    /// Gadget-lane classes whose every member has a reference cost,
    /// cheapest first (ties by key, so the order is total).
    pub fn gadget_classes(&self) -> Vec<Class> {
        let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, l) in self.loops.iter().enumerate() {
            if !l.stateful {
                by_key.entry(l.class).or_default().push(i);
            }
        }
        let mut classes: Vec<Class> = by_key
            .into_iter()
            .filter_map(|(key, members)| {
                let costs: Option<Vec<f64>> =
                    members.iter().map(|&i| self.loops[i].reference).collect();
                let cost = median(&costs?)?;
                Some(Class { key, members, cost })
            })
            .collect();
        classes.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.key.cmp(&b.key)));
        classes
    }

    /// Stateful loops grouped by class, in corpus order.
    pub fn stateful_classes(&self) -> Vec<Vec<usize>> {
        let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, l) in self.loops.iter().enumerate() {
            if l.stateful {
                by_key.entry(l.class).or_default().push(i);
            }
        }
        let mut groups: Vec<Vec<usize>> = by_key.into_values().collect();
        groups.sort();
        groups
    }
}

/// Candidate draws the balanced draw chooses among.
const COLD_CANDIDATES: usize = 256;

/// The `synth_cold` draw: the classes no dearer than `plan.cold_cap_secs`,
/// cheapest first, are cut into `plan.cold_strata` strata of consecutive
/// classes, and one class per
/// stratum plus one member of it is drawn. Of [`COLD_CANDIDATES`] such
/// draws from the seed, the one whose total, median and maximum reference
/// cost are closest to those of a typical draw is kept, so every seed
/// asks for about the same amount of work. Returns loop indices in a
/// seeded order.
pub fn draw_cold(cat: &Catalog, rng: &mut Rng, plan: &Plan) -> Vec<usize> {
    let classes: Vec<Class> = cat
        .gadget_classes()
        .into_iter()
        .filter(|c| c.cost <= plan.cold_cap_secs)
        .collect();
    let (n, k) = (
        classes.len(),
        plan.cold_strata.clamp(1, classes.len().max(1)),
    );
    let strata: Vec<&[Class]> = (0..k)
        .map(|i| &classes[i * n / k..(i + 1) * n / k])
        .collect();
    let draw = |rng: &mut Rng| -> Vec<usize> {
        strata
            .iter()
            .map(|s| {
                let class = &s[rng.below(s.len())];
                class.members[rng.below(class.members.len())]
            })
            .collect()
    };
    let shape = |picks: &[usize]| -> [f64; 3] {
        let costs: Vec<f64> = picks
            .iter()
            .map(|&i| {
                cat.loops[i]
                    .reference
                    .expect("eligible loops have a reference")
            })
            .collect();
        [
            costs.iter().sum(),
            median(&costs).unwrap_or(0.0),
            costs.iter().copied().fold(0.0, f64::max),
        ]
    };
    // The typical draw, independent of the seed.
    let mut typical_rng = Rng::new(0).fork("typical");
    let samples: Vec<[f64; 3]> = (0..2000).map(|_| shape(&draw(&mut typical_rng))).collect();
    let target: Vec<f64> = (0..3)
        .map(|k| median(&samples.iter().map(|s| s[k]).collect::<Vec<_>>()).unwrap_or(1.0))
        .collect();
    let distance = |s: [f64; 3]| -> f64 {
        (0..3)
            .map(|k| (s[k] / target[k] - 1.0).abs())
            .fold(0.0, f64::max)
    };
    let mut best = draw(rng);
    let mut best_d = distance(shape(&best));
    for _ in 1..COLD_CANDIDATES {
        let d = draw(rng);
        let dd = distance(shape(&d));
        if dd < best_d {
            best = d;
            best_d = dd;
        }
    }
    rng.shuffle(&mut best);
    best
}

/// `serve_warm` inputs: for the `plan.warm_classes` cheapest gadget
/// classes, one seeded member per class (the set-up fills the store with
/// these) and the request pool, which is every member of every class.
pub fn draw_warm(cat: &Catalog, rng: &mut Rng, plan: &Plan) -> (Vec<usize>, Vec<usize>) {
    let classes: Vec<Class> = cat
        .gadget_classes()
        .into_iter()
        .take(plan.warm_classes)
        .collect();
    let reps = classes
        .iter()
        .map(|c| c.members[rng.below(c.members.len())])
        .collect();
    let pool = classes.iter().flat_map(|c| c.members.clone()).collect();
    (reps, pool)
}

/// `serve_mixed` inputs: the stateful loops and the `plan.mixed_classes`
/// cheapest gadget classes with all their clones, each loop requested a
/// fixed number of times per round, in a seeded order. The one client
/// sends them in this order, so a class's first arrival is always
/// answered before its next request is sent.
pub fn draw_mixed(cat: &Catalog, rng: &mut Rng, plan: &Plan) -> Vec<usize> {
    let mut stream = Vec::new();
    for &i in cat.stateful_classes().iter().flatten() {
        let n = if cat.loops[i].id == "acc_04" {
            plan.mixed_per_acc04
        } else {
            plan.mixed_per_stateful
        };
        stream.extend(std::iter::repeat_n(i, n));
    }
    for class in cat.gadget_classes().into_iter().take(plan.mixed_classes) {
        for &i in &class.members {
            stream.extend(std::iter::repeat_n(i, plan.mixed_per_gadget));
        }
    }
    rng.shuffle(&mut stream);
    stream
}
