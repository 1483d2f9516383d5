//! The query parameter vocabulary that the CLI's `query` options and the
//! server's URL parameters share: every name builds the condition its
//! builder method sets, single-valued names repeat only with the same
//! value, and a refusal names the parameter in the caller's spelling.

use rememberr::Query;
use rememberr_model::{
    Context, Date, Design, Effect, FixStatus, MsrName, Trigger, TriggerClass, Vendor,
    WorkaroundCategory,
};

fn parse(pairs: &[(&str, &str)]) -> Result<(Query, Option<usize>), String> {
    Query::from_params(pairs.iter().copied(), "")
}

/// `Query` has no equality; its `Debug` form shows every condition.
fn same(a: &Query, b: &Query) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn every_parameter_builds_its_builder_condition() {
    let (parsed, limit) = parse(&[
        ("vendor", "intel"),
        ("design", "Core 6"),
        ("trigger", "Trg_EXT_rst"),
        ("trigger", "Trg_EXT_pci"),
        ("trigger-class", "Trg_EXT"),
        ("context", "Ctx_PRV_vmg"),
        ("effect", "Eff_HNG_hng"),
        ("msr", "MCx_STATUS"),
        ("workaround", "bios"),
        ("fix", "no-fix-planned"),
        ("after", "2016-01-01"),
        ("before", "2019-06-01"),
        ("min-triggers", "2"),
        ("unique", "1"),
        ("annotated", ""),
        ("limit", "5"),
    ])
    .unwrap();
    let built = Query::new()
        .vendor(Vendor::Intel)
        .design(Design::Intel6)
        .trigger(Trigger::Reset)
        .trigger(Trigger::Pcie)
        .trigger_class(TriggerClass::Ext)
        .context(Context::VmGuest)
        .effect(Effect::Hang)
        .msr(MsrName::McStatus)
        .workaround(WorkaroundCategory::Bios)
        .fix(FixStatus::NoFixPlanned)
        .disclosed_after(Date::new(2016, 1, 1).unwrap())
        .disclosed_before(Date::new(2019, 6, 1).unwrap())
        .min_triggers(2)
        .unique_only()
        .annotated_only();
    assert!(same(&parsed, &built), "{parsed:?}\n{built:?}");
    assert_eq!(limit, Some(5));

    // Switched-off flags and `min-triggers=0` set nothing; no `limit`
    // leaves the cap to the caller.
    let (off, limit) = parse(&[
        ("unique", "0"),
        ("annotated", "false"),
        ("min-triggers", "0"),
    ])
    .unwrap();
    assert!(same(&off, &Query::new()), "{off:?}");
    assert_eq!(limit, None);
}

#[test]
fn single_valued_parameters_repeat_only_with_the_same_value() {
    let err = parse(&[("vendor", "intel"), ("vendor", "amd")]).unwrap_err();
    assert_eq!(
        err,
        "vendor given twice with conflicting values: \"intel\" then \"amd\""
    );
    let err = Query::from_params([("vendor", "intel"), ("vendor", "amd")], "--").unwrap_err();
    assert!(err.starts_with("--vendor given twice"), "{err}");
    assert!(parse(&[("unique", "1"), ("unique", "0")]).is_err());

    let (query, limit) = parse(&[
        ("vendor", "intel"),
        ("vendor", "intel"),
        ("limit", "3"),
        ("limit", "3"),
        ("effect", "Eff_HNG_hng"),
        ("effect", "Eff_EXT_usb"),
    ])
    .unwrap();
    let built = Query::new()
        .vendor(Vendor::Intel)
        .effect(Effect::Hang)
        .effect(Effect::Usb);
    assert!(same(&query, &built), "{query:?}");
    assert_eq!(limit, Some(3));
}

#[test]
fn refusals_name_the_parameter_and_what_is_valid() {
    let err = parse(&[("vendour", "intel")]).unwrap_err();
    assert!(err.contains("\"vendour\""), "{err}");
    assert!(err.contains("vendor, design"), "lists valid names: {err}");
    for (pair, wanted) in [
        (("design", "Core 99"), "unknown design \"Core 99\""),
        (("trigger-class", "Trg_NOPE"), "unknown trigger class"),
        (("context", "Ctx_NOPE"), "unknown context code"),
        (("effect", "Eff_NOPE"), "unknown effect code"),
        (("msr", "MSR_NOPE"), "unknown MSR name"),
        (("before", "later"), "invalid value for before: \"later\""),
        (("unique", "maybe"), "invalid value for unique: \"maybe\""),
        (("limit", "-1"), "invalid value for limit: \"-1\""),
    ] {
        let err = parse(&[pair]).unwrap_err();
        assert!(err.contains(wanted), "{pair:?}: {err}");
    }
    // The CLI spells a parameter as its option.
    let err = Query::from_params([("after", "soon")], "--").unwrap_err();
    assert_eq!(
        err,
        "invalid value for --after: \"soon\" (expected YYYY-MM-DD)"
    );

    assert_eq!(Query::param_is_flag("unique"), Some(true));
    assert_eq!(Query::param_is_flag("limit"), Some(false));
    assert_eq!(Query::param_is_flag("db"), None);
}
