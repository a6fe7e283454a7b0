"""AWS Lambda compute-allocation model (paper §4.1, Fig 4).

"the allocation is such that a function with 1792 MiB gets the equivalent of
one vCPU and functions with more memory get proportionally more." The
microbenchmark in Fig 4 shows: with one thread, performance saturates at
1 vCPU no matter the memory; with two threads it keeps growing up to 1.67x at
3008 MiB (= 3008/1792). The law is ``perf = min(threads, memory/1792)``.
"""
from __future__ import annotations

#: Memory that buys exactly one vCPU of compute.
MIB_PER_VCPU = 1792

#: Valid Lambda memory sizes at the time of the paper: 128..3008 MiB. 1796
#: appears in the paper's §5.2 text; it is 1792 rounded in prose, so sizes
#: are range-checked only, not snapped to the 64 MiB step.
MIN_MEMORY_MIB = 128
MAX_MEMORY_MIB = 3008

#: Threads a single function may create (service limit, §4.1).
MAX_THREADS = 1024


def validate_memory(memory_mib: int) -> int:
    """Check a memory size is offerable; returns it for chaining."""
    if not MIN_MEMORY_MIB <= memory_mib <= MAX_MEMORY_MIB:
        raise ValueError(
            f"lambda memory {memory_mib} MiB outside [{MIN_MEMORY_MIB}, {MAX_MEMORY_MIB}]"
        )
    return memory_mib


def cpu_share(memory_mib: int) -> float:
    """Fraction of vCPUs allocated: memory/1792 (can exceed 1)."""
    return validate_memory(memory_mib) / MIB_PER_VCPU


def relative_performance(memory_mib: int, threads: int = 1) -> float:
    """Fig 4: throughput relative to a single-threaded 1792 MiB function.

    A compute-bound job with ``threads`` threads can use at most ``threads``
    vCPUs and at most the allocated share.
    """
    if threads < 1 or threads > MAX_THREADS:
        raise ValueError(f"threads must be in [1, {MAX_THREADS}]")
    return min(float(threads), cpu_share(memory_mib))


def compute_seconds(work_vcpu_seconds: float, memory_mib: int, threads: int = 1) -> float:
    """Wall-clock seconds to finish ``work_vcpu_seconds`` of single-vCPU work."""
    return work_vcpu_seconds / relative_performance(memory_mib, threads)
