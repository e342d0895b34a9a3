//! Performance and memory models for the Optimus reproduction.
//!
//! The paper's evaluation ran on TACC Frontera rtx nodes (4× Quadro RTX 5000
//! per node, InfiniBand between nodes). Those GPUs are not available here,
//! so — per the reproduction's substitution rule — every table and figure is
//! regenerated from an **α-β communication model plus a flop-rate compute
//! model**, calibrated once against the paper's own single-node
//! measurements. This is the same model family the paper itself uses for its
//! analysis (Eqs. 4–5, Table 1, the isoefficiency argument); the executed
//! thread-mesh simulation validates the model's communication volumes
//! (`CostModel::replay` consumes real [`mesh::CommLog`]s).
//!
//! Modules map one-to-one onto the paper's evaluation artifacts:
//!
//! * [`table1`] — the closed-form communication/computation costs per layer.
//! * [`scaling`] — Table 2 (weak scaling), Table 3 (strong scaling) and both
//!   panels of Figure 7.
//! * [`memory`] — the per-device memory model and the Figure 9 max-batch
//!   search.
//! * [`cost`] — Eq. 4/5 collective costs, topology-aware (Figure 8's naive
//!   vs bunched arrangements) with NIC-contention modelling.
//! * [`autotune`] — the hybrid 3D/4D configuration-space search behind
//!   `optimus-cli autotune`: every valid `pp × dp × [q, q, d] × m`
//!   partition priced by the same models, reduced to a Pareto frontier.

pub mod autotune;
pub mod calibration;
pub mod colltune;
pub mod cost;
pub mod memory;
pub mod paradigms;
pub mod profile;
pub mod projection;
pub mod scaling;
pub mod table1;

pub use calibration::Calibration;
pub use colltune::CollTune;
pub use cost::CostModel;
pub use profile::HardwareProfile;
