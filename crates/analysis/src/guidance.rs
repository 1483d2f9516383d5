//! Section VI: applications to design testing.
//!
//! The key observation that triggers are conjunctive while contexts and
//! observations are disjunctive turns the annotated database into an
//! executable test-campaign model: a campaign step *applies* a set of
//! stimuli (must cover all of a bug's triggers), *runs* in a set of
//! contexts (one applicable context suffices) and *watches* a set of
//! observation points (one observable effect suffices).

use rememberr::Database;
use rememberr_model::{ContextSet, Effect, EffectSet, MsrName, Trigger, TriggerSet};

use crate::chart::BarChart;

/// One planned campaign step.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStep {
    /// Stimuli to apply together (conjunctive coverage).
    pub triggers: TriggerSet,
    /// Execution contexts to run the step in.
    pub contexts: ContextSet,
    /// Effects to watch (observation points).
    pub watch: EffectSet,
    /// MSRs worth polling during the step.
    pub msrs: Vec<MsrName>,
    /// Known bugs this step would detect that earlier steps missed.
    pub newly_detected: usize,
}

/// A greedy campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Steps in execution order.
    pub steps: Vec<CampaignStep>,
    /// Known bugs detected by the full plan.
    pub covered: usize,
    /// Known bugs considered (unique, with at least one effect).
    pub total: usize,
}

impl CampaignPlan {
    /// Fraction of known bugs the plan covers.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.covered as f64 / self.total as f64
        }
    }

    /// Renders the plan as text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== Test campaign plan ({} steps, {}/{} known bugs, {:.1}%) ==\n",
            self.steps.len(),
            self.covered,
            self.total,
            100.0 * self.coverage()
        );
        for (i, step) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "step {:>2}: apply {}  in {}  watch {}  (+{} bugs)\n",
                i + 1,
                step.triggers,
                if step.contexts.is_empty() {
                    "any context".to_string()
                } else {
                    step.contexts.to_string()
                },
                step.watch,
                step.newly_detected
            ));
            if !step.msrs.is_empty() {
                let names: Vec<&str> = step.msrs.iter().map(|m| m.text()).collect();
                out.push_str(&format!("         poll MSRs: {}\n", names.join(", ")));
            }
        }
        out
    }
}

/// A bug's detectability-relevant view.
struct BugView {
    triggers: TriggerSet,
    contexts: ContextSet,
    effects: EffectSet,
    msrs: Vec<MsrName>,
}

fn bug_views(db: &Database) -> Vec<BugView> {
    db.unique_entries()
        .into_iter()
        .filter_map(|e| {
            let ann = e.annotation.as_ref()?;
            if ann.effects.is_empty() {
                return None;
            }
            Some(BugView {
                triggers: ann.triggers,
                contexts: ann.contexts,
                effects: ann.effects,
                msrs: ann.msrs.iter().map(|r| r.name).collect(),
            })
        })
        .collect()
}

fn detectable(
    bug: &BugView,
    step_triggers: &TriggerSet,
    contexts: &ContextSet,
    watch: &EffectSet,
) -> bool {
    bug.triggers.satisfied_by_all(step_triggers)
        && bug.contexts.satisfied_by_any(contexts)
        && bug.effects.satisfied_by_any(watch)
}

/// Plans a greedy campaign: each step grows a trigger combination that
/// maximizes newly detectable bugs, then picks the most informative
/// contexts, observation points and MSRs for those bugs.
///
/// `triggers_per_step` bounds the stimuli applied together;
/// `effects_watched` bounds the observation footprint (the paper's
/// observation-space challenge: watching everything is too expensive).
pub fn plan_campaign(
    db: &Database,
    steps: usize,
    triggers_per_step: usize,
    effects_watched: usize,
) -> CampaignPlan {
    let bugs = bug_views(db);
    let total = bugs.len();
    let mut undetected: Vec<bool> = vec![true; bugs.len()];
    let mut plan_steps = Vec::new();

    for _ in 0..steps {
        // Grow the trigger set greedily against remaining bugs, assuming a
        // full watch/context budget during selection.
        let mut step_triggers = TriggerSet::new();
        let full_watch = EffectSet::full();
        let full_ctx = ContextSet::full();
        for _ in 0..triggers_per_step {
            let mut best: Option<(Trigger, usize)> = None;
            for &candidate in Trigger::ALL {
                if step_triggers.contains(candidate) {
                    continue;
                }
                let mut grown = step_triggers;
                grown.insert(candidate);
                let gain = bugs
                    .iter()
                    .zip(&undetected)
                    .filter(|(b, u)| **u && detectable(b, &grown, &full_ctx, &full_watch))
                    .count();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((candidate, gain));
                }
            }
            if let Some((t, _)) = best {
                step_triggers.insert(t);
            }
        }

        // Bugs this trigger set can reach (before observation budget).
        let reachable: Vec<usize> = bugs
            .iter()
            .enumerate()
            .filter(|(i, b)| undetected[*i] && b.triggers.satisfied_by_all(&step_triggers))
            .map(|(i, _)| i)
            .collect();

        // Contexts: every context any reachable bug requires (cheap to
        // enumerate; running a step in a few extra modes is inexpensive).
        let mut contexts = ContextSet::new();
        for &i in &reachable {
            contexts = contexts.union(&bugs[i].contexts);
        }

        // Observation points: greedy top effects over reachable bugs.
        let mut watch = EffectSet::new();
        for _ in 0..effects_watched {
            let mut best: Option<(Effect, usize)> = None;
            for &candidate in Effect::ALL {
                if watch.contains(candidate) {
                    continue;
                }
                let mut grown = watch;
                grown.insert(candidate);
                let gain = reachable
                    .iter()
                    .filter(|&&i| detectable(&bugs[i], &step_triggers, &contexts, &grown))
                    .count();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((candidate, gain));
                }
            }
            if let Some((e, _)) = best {
                watch.insert(e);
            }
        }

        // MSRs: the most frequent witnesses among newly detected bugs.
        let mut newly = Vec::new();
        for &i in &reachable {
            if detectable(&bugs[i], &step_triggers, &contexts, &watch) {
                newly.push(i);
            }
        }
        let mut msr_counts: Vec<(MsrName, usize)> = Vec::new();
        for &i in &newly {
            for &m in &bugs[i].msrs {
                match msr_counts.iter_mut().find(|(n, _)| *n == m) {
                    Some((_, c)) => *c += 1,
                    None => msr_counts.push((m, 1)),
                }
            }
        }
        msr_counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        msr_counts.truncate(3);

        for &i in &newly {
            undetected[i] = false;
        }
        plan_steps.push(CampaignStep {
            triggers: step_triggers,
            contexts,
            watch,
            msrs: msr_counts.into_iter().map(|(m, _)| m).collect(),
            newly_detected: newly.len(),
        });
    }

    let covered = undetected.iter().filter(|u| !**u).count();
    CampaignPlan {
        steps: plan_steps,
        covered,
        total,
    }
}

/// Ranks observation points for a campaign that applies exactly the given
/// stimuli: how many known bugs each effect would reveal.
pub fn recommend_observation_points(db: &Database, applied: &TriggerSet) -> BarChart {
    let bugs = bug_views(db);
    let mut chart = BarChart::new(format!("Observation points for stimuli {applied}"), " bugs");
    for &effect in Effect::ALL {
        let watch: EffectSet = [effect].into_iter().collect();
        let n = bugs
            .iter()
            .filter(|b| b.triggers.satisfied_by_all(applied) && b.effects.satisfied_by_any(&watch))
            .count();
        if n > 0 {
            chart.push(effect.code(), n as f64);
        }
    }
    chart.sort_desc();
    chart
}

/// Ranks trigger classes by bug involvement: the modules a formal-methods
/// campaign should *not* black-box (the paper's scoping guidance — power
/// management has been "vastly excluded" from verified design parts).
pub fn blackbox_guidance(db: &Database) -> BarChart {
    let bugs = bug_views(db);
    let mut chart = BarChart::new(
        "Design scopes ranked by bug involvement (do not black-box the top)",
        " bugs",
    );
    for class in rememberr_model::TriggerClass::ALL {
        let n = bugs
            .iter()
            .filter(|b| b.triggers.iter().any(|t| t.class() == *class))
            .count();
        chart.push(class.code(), n as f64);
    }
    chart.sort_desc();
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fixture;

    #[test]
    fn plan_covers_more_with_more_steps() {
        let db = &fixture(0.3).db;
        let small = plan_campaign(db, 2, 3, 3);
        let large = plan_campaign(db, 8, 3, 3);
        assert!(large.covered >= small.covered);
        assert!(large.coverage() > 0.2, "{}", large.coverage());
        assert_eq!(small.steps.len(), 2);
    }

    #[test]
    fn steps_report_monotone_progress() {
        let db = &fixture(0.3).db;
        let plan = plan_campaign(db, 6, 3, 4);
        let sum: usize = plan.steps.iter().map(|s| s.newly_detected).sum();
        assert_eq!(sum, plan.covered);
        // Greedy: the first step detects at least as much as any later one.
        let first = plan.steps[0].newly_detected;
        for step in &plan.steps[1..] {
            assert!(step.newly_detected <= first);
        }
    }

    #[test]
    fn first_step_exploits_hot_triggers() {
        let db = &fixture(0.3).db;
        let plan = plan_campaign(db, 1, 3, 4);
        let s = &plan.steps[0];
        // The hottest triggers (MSR configuration, power) should appear.
        assert!(
            s.triggers.contains(Trigger::ConfigRegister)
                || s.triggers.contains(Trigger::Throttling)
                || s.triggers.contains(Trigger::PowerStateChange),
            "{}",
            s.triggers
        );
        assert!(s.newly_detected > 0);
    }

    #[test]
    fn observation_points_are_ranked() {
        let db = &fixture(0.3).db;
        let applied: TriggerSet = [Trigger::ConfigRegister, Trigger::Throttling]
            .into_iter()
            .collect();
        let chart = recommend_observation_points(db, &applied);
        assert!(!chart.rows.is_empty());
        for pair in chart.rows.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn blackbox_guidance_ranks_power_and_config_high() {
        let db = &fixture(0.3).db;
        let chart = blackbox_guidance(db);
        let top3: Vec<&str> = chart.rows[..3].iter().map(|(l, _)| l.as_str()).collect();
        assert!(
            top3.contains(&"Trg_POW") || top3.contains(&"Trg_CFG"),
            "{top3:?}"
        );
    }

    #[test]
    fn plan_renders() {
        let db = &fixture(0.3).db;
        let plan = plan_campaign(db, 2, 2, 2);
        let text = plan.render_text();
        assert!(text.contains("step  1"));
        assert!(text.contains("known bugs"));
    }
}
