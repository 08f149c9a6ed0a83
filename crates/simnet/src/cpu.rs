//! A processor model: *N* cores with a FIFO run queue.
//!
//! The SwitchFS evaluation varies the number of cores per metadata server
//! (Fig. 2(d), Fig. 14) to show intra-server parallelism. Every server-side
//! code path in this repository charges calibrated service times through a
//! [`CpuPool`]; when all cores are busy the work queues, which is what makes
//! throughput saturate and latency grow under load exactly as on a real
//! multi-core server.

use crate::executor::SimHandle;
use crate::sync::semaphore::Semaphore;
use crate::time::SimDuration;

/// An *N*-core processor with FIFO queueing.
#[derive(Clone)]
pub struct CpuPool {
    handle: SimHandle,
    cores: Semaphore,
    num_cores: usize,
}

impl CpuPool {
    /// Creates a pool with `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(handle: SimHandle, num_cores: usize) -> Self {
        assert!(num_cores > 0, "a CPU pool needs at least one core");
        CpuPool {
            handle,
            cores: Semaphore::new(num_cores),
            num_cores,
        }
    }

    /// Number of cores in this pool.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Occupies one core for `work` of virtual time (queueing first if all
    /// cores are busy), then releases it.
    pub async fn run(&self, work: SimDuration) {
        if work.is_zero() {
            return;
        }
        let _permit = self.cores.acquire().await;
        self.handle.sleep(work).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimTime;

    #[test]
    fn single_core_serializes_work() {
        let sim = Sim::new(1);
        let cpu = CpuPool::new(sim.handle(), 1);
        for _ in 0..4 {
            let cpu = cpu.clone();
            sim.spawn(async move {
                cpu.run(SimDuration::micros(10)).await;
            });
        }
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::from_micros(40));
    }

    #[test]
    fn more_cores_increase_parallelism() {
        let sim = Sim::new(1);
        let cpu = CpuPool::new(sim.handle(), 4);
        for _ in 0..4 {
            let cpu = cpu.clone();
            sim.spawn(async move {
                cpu.run(SimDuration::micros(10)).await;
            });
        }
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::from_micros(10));
    }

    #[test]
    fn zero_work_is_free() {
        let sim = Sim::new(1);
        let cpu = CpuPool::new(sim.handle(), 1);
        let cpu2 = cpu.clone();
        sim.spawn(async move {
            cpu2.run(SimDuration::ZERO).await;
        });
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let sim = Sim::new(1);
        let _ = CpuPool::new(sim.handle(), 0);
    }
}
