//! Data model for the RemembERR microprocessor-errata study.
//!
//! This crate defines the vocabulary shared by the whole pipeline:
//!
//! * [`Design`] / [`Vendor`] — the 28 designs whose errata documents the
//!   study examined (Table III of the paper);
//! * [`Erratum`], [`ErrataDocument`], [`Revision`] — the raw material;
//! * the three-level classification scheme of Tables IV-VI:
//!   [`Trigger`]/[`TriggerClass`], [`Context`]/[`ContextClass`],
//!   [`Effect`]/[`EffectClass`], with [`Category::COUNT`] = 60 abstract
//!   categories in 15 classes;
//! * [`Annotation`] — the per-erratum labels, where trigger sets are
//!   **conjunctive** and context/effect sets **disjunctive**;
//! * [`MachineErratum`] — the machine-readable erratum format the paper
//!   proposes (Table VII).
//!
//! # Examples
//!
//! ```
//! use rememberr_model::{Annotation, Context, Design, Effect, Trigger};
//!
//! // Annotate the paper's Table I erratum (Intel ADL001):
//! let annotation = Annotation::builder()
//!     .trigger(Trigger::FloatingPoint, "Execution of FSAVE, FNSAVE, FSTENV, or FNSTENV")
//!     .context(Context::RealMode, "real-address mode or virtual-8086 mode")
//!     .effect(Effect::Unpredictable, "incorrect value for the x87 FDP")
//!     .build();
//!
//! assert_eq!(annotation.complexity(), 1);
//! assert_eq!(Design::Intel12.reference(), "682436-004US");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod annotation;
mod catset;
mod date;
mod decimal;
mod design;
mod document;
mod erratum;
mod error;
mod facetparse;
mod format;
mod ids;
mod msr;
mod status;
mod taxonomy;
mod wire;

pub use annotation::{Annotation, AnnotationBuilder};
pub use catset::{Catalog, CategorySet, ContextSet, EffectSet, Iter, TriggerSet};
pub use date::{Date, MONTH_NAMES};
pub use decimal::write_zero_padded;
pub use design::{Design, Segment, Vendor};
pub use document::{ErrataDocument, FixedIn, Revision};
pub use erratum::{DateSource, Erratum, ErratumId, Provenance};
pub use error::ModelError;
pub use facetparse::{parse_display_category, parse_fix, parse_vendor, parse_workaround};
pub use format::MachineErratum;
pub use ids::UniqueKey;
pub use msr::{MsrName, MsrRef};
pub use status::{FixStatus, WorkaroundCategory};
pub use taxonomy::{Category, Context, ContextClass, Effect, EffectClass, Trigger, TriggerClass};
pub use wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Annotation>();
        assert_bounds::<ErrataDocument>();
        assert_bounds::<MachineErratum>();
        assert_bounds::<ModelError>();
    }
}
