//! Re-exports the rule tables of the paper's schemes from `decache_core::ir`.
pub use decache_core::ir::hand_table;
