//! The rule library: phrase patterns per abstract category.
//!
//! Two tiers per category:
//!
//! * **strong** patterns are specific enough to classify automatically
//!   (the paper: "some errata contain expressions that are specific enough
//!   to be classified automatically using regular expressions");
//! * **weak** patterns only indicate that the category *might* apply — the
//!   erratum-category pair then needs a human decision (the paper's
//!   filtering reduced 67,680 decisions per human to 2,064).
//!
//! The same patterns drive the syntax-highlighting assist
//! ([`rememberr_textkit::highlights`]) used during manual classification.

use rememberr_model::Category;
use rememberr_textkit::{Pattern, PatternSet, RuleMatcher};

/// The compiled rule library.
///
/// Compilation pre-groups rules per category (so per-category lookups are
/// index reads, not scans over the whole library) and builds one shared
/// [`RuleMatcher`] over strong + weak + complex patterns, in that order, so
/// the whole library matches against an erratum in a single indexed pass.
#[derive(Debug, Clone)]
pub struct Rules {
    strong: Vec<(Category, Pattern)>,
    weak: Vec<(Category, Pattern)>,
    complex: Vec<Pattern>,
    /// Per-category indices into `strong` (`Category::dense_index` keyed),
    /// in library order.
    strong_by_cat: Vec<Vec<usize>>,
    /// Per-category indices into `weak`, in library order.
    weak_by_cat: Vec<Vec<usize>>,
    /// Indexed matcher over `strong ++ weak ++ complex`; a strong rule's
    /// matcher id is its `strong` index, a weak rule's is
    /// `strong.len() + weak index`, a complex marker's is
    /// `strong.len() + weak.len() + complex index`.
    matcher: RuleMatcher,
}

/// `(category code, DSL pattern)` rows; compiled by [`Rules::standard`].
const STRONG_RULES: &[(&str, &str)] = &[
    // --- Triggers: memory boundaries -----------------------------------
    ("Trg_MBR_cbr", "cache line boundary"),
    ("Trg_MBR_cbr", "straddles <1> cache lines"),
    ("Trg_MBR_cbr", "spanning a cache line"),
    ("Trg_MBR_pgb", "page boundary"),
    ("Trg_MBR_mbr", "canonical <2> boundary"),
    ("Trg_MBR_mbr", "memory map boundary"),
    ("Trg_MBR_mbr", "canonical address boundary"),
    // --- Triggers: memory operations ------------------------------------
    ("Trg_MOP_mmp", "memory-mapped"),
    ("Trg_MOP_atp", "locked atomic"),
    ("Trg_MOP_atp", "transactional memory"),
    ("Trg_MOP_atp", "atomic operation|operations"),
    ("Trg_MOP_fen", "serializing instruction"),
    ("Trg_MOP_fen", "memory fence"),
    ("Trg_MOP_fen", "mfence"),
    ("Trg_MOP_seg", "segment mode|modes|configuration|limit"),
    ("Trg_MOP_ptw", "page table walk|walks"),
    ("Trg_MOP_ptw", "hardware page walk"),
    ("Trg_MOP_nst", "nested page|paging"),
    ("Trg_MOP_nst", "nested page tables"),
    ("Trg_MOP_flc", "cache line is flushed"),
    ("Trg_MOP_flc", "clflush"),
    ("Trg_MOP_flc", "tlb entry|flush"),
    ("Trg_MOP_flc", "flushing a cache"),
    ("Trg_MOP_spe", "speculative|speculatively|speculation"),
    // --- Triggers: exceptions and faults --------------------------------
    ("Trg_FLT_ovf", "counter overflow|overflows"),
    ("Trg_FLT_ovf", "overflow of an internal counter"),
    ("Trg_FLT_tmr", "timer event|interrupt"),
    ("Trg_FLT_tmr", "expiration of a timer"),
    ("Trg_FLT_mca", "machine check <2> is being delivered"),
    ("Trg_FLT_mca", "machine check event is logged"),
    ("Trg_FLT_ill", "undefined opcode"),
    ("Trg_FLT_ill", "illegal instruction"),
    // --- Triggers: privilege transitions --------------------------------
    ("Trg_PRV_ret", "resumes from system management"),
    ("Trg_PRV_ret", "rsm instruction"),
    ("Trg_PRV_ret", "resuming from system management"),
    ("Trg_PRV_vmt", "vm entry|exit"),
    ("Trg_PRV_vmt", "between the hypervisor and a guest"),
    ("Trg_PRV_vmt", "transitions between hypervisor and guest"),
    ("Trg_PRV_vmt", "transition between the hypervisor"),
    // --- Triggers: dynamic configuration --------------------------------
    ("Trg_CFG_pag", "paging mechanism|modes"),
    ("Trg_CFG_pag", "paging is enabled or disabled"),
    ("Trg_CFG_pag", "enabling or disabling paging"),
    ("Trg_CFG_vmc", "vmcs"),
    ("Trg_CFG_vmc", "virtual machine control"),
    ("Trg_CFG_wrg", "writes a specific value"),
    ("Trg_CFG_wrg", "register is programmed"),
    ("Trg_CFG_wrg", "msr write"),
    ("Trg_CFG_wrg", "msr configuration"),
    ("Trg_CFG_wrg", "writing certain model specific"),
    ("Trg_CFG_wrg", "reserved configuration register"),
    ("Trg_CFG_wrg", "changes the operating configuration"),
    // --- Triggers: power -----------------------------------------------------
    ("Trg_POW_pwc", "power state transition"),
    ("Trg_POW_pwc", "c6"),
    ("Trg_POW_pwc", "deep sleep"),
    ("Trg_POW_pwc", "enters|entering a deep sleep state"),
    ("Trg_POW_pwc", "resumes|resuming from <2> c6|power"),
    ("Trg_POW_tht", "throttling|throttles|throttle"),
    ("Trg_POW_tht", "thermal"),
    ("Trg_POW_tht", "power supply"),
    // --- Triggers: external inputs --------------------------------------
    ("Trg_EXT_rst", "warm|cold reset"),
    ("Trg_EXT_rst", "reset sequence|sequences"),
    ("Trg_EXT_pci", "pcie traffic"),
    ("Trg_EXT_pci", "pcie link retraining|retrains"),
    ("Trg_EXT_pci", "ongoing pcie"),
    ("Trg_EXT_usb", "usb controller|device"),
    ("Trg_EXT_ram", "dram configuration"),
    ("Trg_EXT_ram", "ddr"),
    ("Trg_EXT_iom", "iommu"),
    ("Trg_EXT_bus", "system bus"),
    ("Trg_EXT_bus", "hypertransport"),
    // --- Triggers: features ---------------------------------------------------
    ("Trg_FEA_fpu", "x87"),
    ("Trg_FEA_fpu", "fsave|fnsave|fstenv|fnstenv"),
    ("Trg_FEA_fpu", "floating-point"),
    ("Trg_FEA_dbg", "breakpoint|breakpoints"),
    ("Trg_FEA_dbg", "debug register|registers|features"),
    ("Trg_FEA_dbg", "single-stepping"),
    ("Trg_FEA_cid", "cpuid"),
    ("Trg_FEA_cid", "design identification"),
    ("Trg_FEA_mon", "mwait"),
    ("Trg_FEA_mon", "monitor and mwait"),
    ("Trg_FEA_trc", "trace packet|packets|messages"),
    ("Trg_FEA_trc", "branch trace"),
    ("Trg_FEA_trc", "processor trace"),
    ("Trg_FEA_cus", "sse"),
    ("Trg_FEA_cus", "vector instructions"),
    ("Trg_FEA_cus", "mmx"),
    // --- Contexts --------------------------------------------------------------
    ("Ctx_PRV_boo", "bios initialization"),
    ("Ctx_PRV_boo", "system is booting"),
    ("Ctx_PRV_vmg", "virtual machine guest"),
    ("Ctx_PRV_vmg", "virtualized guest"),
    ("Ctx_PRV_vmg", "guest environment"),
    ("Ctx_PRV_rea", "real-address mode"),
    ("Ctx_PRV_rea", "real mode"),
    ("Ctx_PRV_rea", "virtual-8086"),
    ("Ctx_PRV_vmh", "operating as a hypervisor"),
    ("Ctx_PRV_vmh", "vmx root"),
    ("Ctx_PRV_smm", "while in system management"),
    ("Ctx_PRV_smm", "smm execution"),
    ("Ctx_FEA_sec", "sgx|svm"),
    ("Ctx_FEA_sec", "security feature"),
    ("Ctx_FEA_sec", "memory encryption"),
    ("Ctx_FEA_sgc", "single-core"),
    ("Ctx_FEA_sgc", "one core is active"),
    ("Ctx_PHY_pkg", "package types|configurations"),
    ("Ctx_PHY_pkg", "package-specific"),
    ("Ctx_PHY_tmp", "operating temperatures"),
    ("Ctx_PHY_tmp", "temperature conditions"),
    ("Ctx_PHY_vol", "voltage|voltages"),
    // --- Effects ---------------------------------------------------------------
    ("Eff_HNG_unp", "unpredictable"),
    ("Eff_HNG_hng", "hang|hangs"),
    ("Eff_HNG_hng", "unresponsive"),
    ("Eff_HNG_crh", "crash|crashes"),
    ("Eff_HNG_crh", "unexpected shutdown"),
    ("Eff_HNG_boo", "boot failure"),
    ("Eff_HNG_boo", "fail to boot"),
    ("Eff_HNG_boo", "prevent the system from booting"),
    ("Eff_FLT_mca", "signal a machine check"),
    ("Eff_FLT_mca", "erroneous machine check"),
    ("Eff_FLT_mca", "machine check exception may"),
    ("Eff_FLT_mca", "unexpected machine check"),
    ("Eff_FLT_unc", "uncorrectable"),
    ("Eff_FLT_fsp", "spurious"),
    ("Eff_FLT_fms", "fail to deliver"),
    ("Eff_FLT_fms", "may not be delivered"),
    ("Eff_FLT_fms", "suppress a required"),
    ("Eff_FLT_fms", "exception may be missing"),
    ("Eff_FLT_fid", "fault identifier"),
    ("Eff_FLT_fid", "faults in the wrong order"),
    ("Eff_FLT_fid", "wrong order"),
    (
        "Eff_CRP_prf",
        "performance counter|counters|monitoring|events",
    ),
    ("Eff_CRP_prf", "over-count"),
    ("Eff_CRP_reg", "saved incorrectly"),
    ("Eff_CRP_reg", "corrupt a model specific"),
    ("Eff_CRP_reg", "stale msr"),
    ("Eff_CRP_reg", "register may contain an incorrect"),
    ("Eff_CRP_reg", "corrupted value"),
    ("Eff_EXT_pci", "degrade the pcie"),
    ("Eff_EXT_pci", "pcie transaction errors"),
    ("Eff_EXT_pci", "observable on the pcie"),
    ("Eff_EXT_pci", "malformed transactions"),
    ("Eff_EXT_usb", "drop usb"),
    ("Eff_EXT_usb", "usb transactions|device errors"),
    ("Eff_EXT_usb", "observable on the usb"),
    ("Eff_EXT_usb", "dropped transactions"),
    ("Eff_EXT_mmd", "audio|graphics|display|multimedia"),
    ("Eff_EXT_ram", "abnormally with dram"),
    ("Eff_EXT_ram", "memory interface"),
    ("Eff_EXT_ram", "abnormal interaction with dram"),
    ("Eff_EXT_pow", "power consumption"),
    ("Eff_EXT_pow", "fail to reach the requested power"),
    ("Eff_EXT_pow", "power state entry"),
];

/// Weak, ambiguous cues: the category *might* apply; a human must decide.
const WEAK_RULES: &[(&str, &str)] = &[
    ("Trg_FLT_mca", "machine check"),
    ("Eff_FLT_mca", "machine check"),
    ("Trg_CFG_wrg", "register"),
    ("Eff_CRP_reg", "register"),
    ("Trg_EXT_rst", "reset"),
    ("Trg_POW_pwc", "power"),
    ("Eff_EXT_pow", "power"),
    ("Trg_EXT_pci", "pcie|pci"),
    ("Eff_EXT_pci", "pcie|pci"),
    ("Trg_EXT_usb", "usb"),
    ("Eff_EXT_usb", "usb"),
    ("Trg_EXT_ram", "dram|memory"),
    ("Eff_EXT_ram", "dram|memory"),
    ("Ctx_PRV_boo", "boot*"),
    ("Eff_HNG_boo", "boot*"),
    ("Ctx_PRV_smm", "smm"),
    ("Trg_PRV_ret", "smm"),
    ("Ctx_PRV_vmh", "hypervisor"),
    ("Trg_PRV_vmt", "hypervisor|guest"),
    ("Ctx_PRV_vmg", "guest"),
];

/// Patterns marking "complex set of conditions" errata.
const COMPLEX_RULES: &[&str] = &[
    "highly specific <4> conditions",
    "complex set of conditions",
    "detailed set of internal timing",
];

impl Rules {
    /// Compiles the standard rule library.
    ///
    /// # Panics
    ///
    /// Panics if a built-in pattern fails to compile (checked by tests).
    pub fn standard() -> Self {
        Self::compile(STRONG_RULES, WEAK_RULES, COMPLEX_RULES).expect("standard library compiles")
    }

    /// Compiles a rule library from `(category code, DSL pattern)` rows,
    /// pre-grouping rules per category and building the shared indexed
    /// matcher over the whole library.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending row when a category code or
    /// pattern fails to compile.
    pub fn compile(
        strong_rows: &[(&str, &str)],
        weak_rows: &[(&str, &str)],
        complex_rows: &[&str],
    ) -> Result<Self, String> {
        let parse_rows = |rows: &[(&str, &str)]| -> Result<Vec<(Category, Pattern)>, String> {
            rows.iter()
                .map(|(code, src)| {
                    let category: Category = code
                        .parse()
                        .map_err(|_| format!("bad category code {code}"))?;
                    let pattern =
                        Pattern::parse(src).map_err(|e| format!("bad pattern {src:?}: {e}"))?;
                    Ok((category, pattern))
                })
                .collect()
        };
        let strong = parse_rows(strong_rows)?;
        let weak = parse_rows(weak_rows)?;
        let complex: Vec<Pattern> = complex_rows
            .iter()
            .map(|src| Pattern::parse(src).map_err(|e| format!("bad pattern {src:?}: {e}")))
            .collect::<Result<_, _>>()?;

        let group = |rules: &[(Category, Pattern)]| -> Vec<Vec<usize>> {
            let mut by_cat = vec![Vec::new(); Category::COUNT];
            for (i, (category, _)) in rules.iter().enumerate() {
                by_cat[category.dense_index()].push(i);
            }
            by_cat
        };
        let strong_by_cat = group(&strong);
        let weak_by_cat = group(&weak);
        let matcher = RuleMatcher::compile(
            strong
                .iter()
                .map(|(_, p)| p)
                .chain(weak.iter().map(|(_, p)| p))
                .chain(complex.iter())
                .cloned(),
        );
        Ok(Self {
            strong,
            weak,
            complex,
            strong_by_cat,
            weak_by_cat,
            matcher,
        })
    }

    /// Strong rules for a category (pre-grouped at compile time).
    pub fn strong_for(&self, category: Category) -> impl Iterator<Item = &Pattern> {
        self.strong_by_cat[category.dense_index()]
            .iter()
            .map(move |&i| &self.strong[i].1)
    }

    /// Weak rules for a category (pre-grouped at compile time).
    pub fn weak_for(&self, category: Category) -> impl Iterator<Item = &Pattern> {
        self.weak_by_cat[category.dense_index()]
            .iter()
            .map(move |&i| &self.weak[i].1)
    }

    /// The shared indexed matcher over the whole library.
    pub fn matcher(&self) -> &RuleMatcher {
        &self.matcher
    }

    /// Matcher ids of a category's strong rules, in library order (equal to
    /// indices into [`Rules::strong`]).
    pub(crate) fn strong_ids_for(&self, category: Category) -> &[usize] {
        &self.strong_by_cat[category.dense_index()]
    }

    /// Matcher ids of a category's weak rules, in library order.
    pub(crate) fn weak_ids_for(&self, category: Category) -> impl Iterator<Item = usize> + '_ {
        let offset = self.strong.len();
        self.weak_by_cat[category.dense_index()]
            .iter()
            .map(move |&i| offset + i)
    }

    /// Matcher ids of the complex-conditions markers.
    pub(crate) fn complex_ids(&self) -> std::ops::Range<usize> {
        let offset = self.strong.len() + self.weak.len();
        offset..offset + self.complex.len()
    }

    /// All strong rules.
    pub fn strong(&self) -> &[(Category, Pattern)] {
        &self.strong
    }

    /// All weak rules.
    pub fn weak(&self) -> &[(Category, Pattern)] {
        &self.weak
    }

    /// The complex-conditions markers.
    pub fn complex(&self) -> &[Pattern] {
        &self.complex
    }

    /// Builds the highlight pattern set (strong rules labelled by category
    /// code) for the syntax-highlighting assist.
    ///
    /// Pattern `i` of the set is `self.strong()[i]`, which is also pattern
    /// id `i` of [`Rules::matcher`] (the matcher compiles strong rules
    /// first, in library order) — so a matcher pass over a text already
    /// holds the set's spans ([`rememberr_textkit::highlights_matched`]).
    pub fn highlight_set(&self) -> PatternSet {
        let mut set = PatternSet::new();
        for (category, pattern) in &self.strong {
            set.add(category.code(), pattern.clone());
        }
        set
    }
}

impl Default for Rules {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rememberr_model::{Context, Effect, Trigger};

    #[test]
    fn all_rules_compile() {
        let rules = Rules::standard();
        assert!(rules.strong().len() > 100);
        assert!(!rules.weak().is_empty());
        assert_eq!(rules.complex().len(), 3);
    }

    #[test]
    fn every_category_has_at_least_one_strong_rule() {
        let rules = Rules::standard();
        for category in Category::all() {
            assert!(
                rules.strong_for(category).count() >= 1,
                "no strong rule for {category}"
            );
        }
    }

    #[test]
    fn rules_match_representative_phrases() {
        let rules = Rules::standard();
        let cases: &[(Category, &str)] = &[
            (
                Category::Trigger(Trigger::PowerStateChange),
                "the core resumes from the C6 power state",
            ),
            (
                Category::Trigger(Trigger::Throttling),
                "thermal throttling engages",
            ),
            (
                Category::Trigger(Trigger::ConfigRegister),
                "software writes a specific value to a configuration register",
            ),
            (Category::Trigger(Trigger::Reset), "a warm reset is applied"),
            (
                Category::Context(Context::VmGuest),
                "while running as a virtual machine guest",
            ),
            (
                Category::Context(Context::RealMode),
                "in real-address mode or virtual-8086 mode",
            ),
            (Category::Effect(Effect::Hang), "the processor may hang"),
            (
                Category::Effect(Effect::MsrValue),
                "the value may be saved incorrectly",
            ),
            (
                Category::Effect(Effect::MachineCheck),
                "may signal a machine check exception",
            ),
        ];
        for (category, text) in cases {
            let hit = rules.strong_for(*category).any(|p| p.matches(text));
            assert!(hit, "{category} should match {text:?}");
        }
    }

    #[test]
    fn highlight_set_has_category_labels() {
        let rules = Rules::standard();
        let set = rules.highlight_set();
        assert_eq!(set.len(), rules.strong().len());
        let prepared = rememberr_textkit::PreparedText::new("a warm reset occurs");
        assert_eq!(set.matching_labels(&prepared), vec!["Trg_EXT_rst"]);
    }

    #[test]
    fn highlight_set_indices_are_matcher_ids() {
        // The assist reads the highlight set's spans from a matcher pass,
        // which is only sound if set index i and matcher id i are the same
        // pattern. Check behavioral agreement over texts matching every
        // strong rule's own source (via its first literal alternative).
        let rules = Rules::standard();
        let set = rules.highlight_set();
        let matcher = rules.matcher();
        for (_, pattern) in rules.strong() {
            let text = rememberr_textkit::PreparedText::from_string(
                pattern.source().replace(['|', '*', '<', '>'], " "),
            );
            let matches = matcher.match_doc(&text);
            let mut from_matches = Vec::new();
            for id in 0..set.len() {
                from_matches.extend(matches.spans(id).iter().map(|&span| (set.label(id), span)));
            }
            assert_eq!(
                set.find_spans(&text),
                from_matches,
                "pattern {:?}",
                pattern.source()
            );
        }
    }

    #[test]
    fn per_category_groups_cover_the_whole_library_in_order() {
        let rules = Rules::standard();
        // The pre-grouped per-category iterators must agree with a fresh
        // filter over the flat library (the pre-PR implementation).
        for category in Category::all() {
            let grouped: Vec<&Pattern> = rules.strong_for(category).collect();
            let filtered: Vec<&Pattern> = rules
                .strong()
                .iter()
                .filter(|(c, _)| *c == category)
                .map(|(_, p)| p)
                .collect();
            assert_eq!(grouped, filtered, "strong rules for {category}");
            let grouped: Vec<&Pattern> = rules.weak_for(category).collect();
            let filtered: Vec<&Pattern> = rules
                .weak()
                .iter()
                .filter(|(c, _)| *c == category)
                .map(|(_, p)| p)
                .collect();
            assert_eq!(grouped, filtered, "weak rules for {category}");
        }
    }

    #[test]
    fn matcher_ids_line_up_with_the_library() {
        let rules = Rules::standard();
        let total = rules.strong().len() + rules.weak().len() + rules.complex().len();
        assert_eq!(rules.matcher().len(), total);
        for category in Category::all() {
            for (&id, (_, p)) in rules
                .strong_ids_for(category)
                .iter()
                .zip(rules.strong().iter().filter(|(c, _)| *c == category))
            {
                assert_eq!(rules.matcher().patterns()[id].source(), p.source());
            }
            for (id, p) in rules.weak_ids_for(category).zip(rules.weak_for(category)) {
                assert_eq!(rules.matcher().patterns()[id].source(), p.source());
            }
        }
        for (id, p) in rules.complex_ids().zip(rules.complex()) {
            assert_eq!(rules.matcher().patterns()[id].source(), p.source());
        }
    }

    #[test]
    fn compile_rejects_bad_rows() {
        assert!(Rules::compile(&[("Not_A_Cat", "x")], &[], &[]).is_err());
        assert!(Rules::compile(&[("Trg_EXT_rst", "<x>")], &[], &[]).is_err());
        assert!(Rules::compile(&[], &[], &["<2>"]).is_err());
    }

    #[test]
    fn complex_marker_matches_docgen_preamble() {
        let rules = Rules::standard();
        let marker = rememberr_docgen::complex_conditions_marker();
        assert!(rules.complex().iter().any(|p| p.matches(marker)));
    }
}
