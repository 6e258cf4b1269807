// Fixture: must trigger S1 (one-scheduler-core) exactly once: a panic
// allowance in the scheduler core. Scanned as crates/core/src/scheduler.rs,
// so it carries the one definition of every other S1 function too; not
// compiled.

impl Scheduler {
    fn on_txn_slice_done(&mut self, now: SimTime) {
        // lint: allow(live-panic, reason=a txn slice exists only while a transaction is bound)
        let rt = Self::running(&mut self.running, now);
        self.continue_txn(rt, now);
    }

    fn try_update_step() {}
    fn run_updates() {}
    fn price_install() {}
    fn take_preempt_cost() {}
    fn work_state() {}
    fn try_dag_step() {}
    fn handle_view_read() {}
    fn begin_scan() {}
    fn handle_post_scan() {}
    fn finalize_read() {}
    fn continue_txn() {}
    fn propagate_base_install() {}
    fn dag_apply() {}
    fn dag_refresh_work() {}
    fn perform_dag_refresh() {}
    fn handle_derived_read() {}
    fn finalize_derived_read() {}
}
