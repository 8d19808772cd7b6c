#!/usr/bin/env python3
"""How fast the posterior ranker hands leadership to a new best expert.

Expert 0 strictly dominates for the first phase, then expert 1 takes over
(and expert 0 drops to the bottom of the pack). For each decay value the
script reports how many steps the posterior needs to crown the new leader
and prints a coarse trajectory of the two posteriors around the switch.
"""

import argparse

import numpy as np

from seqrank import RankerState
from seqrank.ranker import rank_order


def steps_to_flip(tau: float, pre_steps: int, d: int = 5, max_post: int = 20_000):
    ladder = np.linspace(0.8, 0.05, d)
    swapped = ladder.copy()
    swapped[0], swapped[1] = ladder[-1], ladder[0]
    state = RankerState(d, tau)
    if pre_steps > 0:
        state.update(np.tile(ladder, (pre_steps, 1)))
    # the reversal in calls of up to pre_steps rows, until one crowns expert 1;
    # row i of the posterior is the state after step i + 1
    chunk, blocks, leaders = max(1, pre_steps), [], []
    for start in range(0, max_post, chunk):
        blocks.append(state.update(np.tile(swapped, (min(chunk, max_post - start), 1))))
        leaders.append(rank_order(blocks[-1])[:, 0])
        if (leaders[-1] == 1).any():
            break
    posterior, crowned = np.concatenate(blocks), np.concatenate(leaders) == 1
    flip = int(crowned.argmax()) + 1 if crowned.any() else None
    every = max(1, pre_steps // 10)
    trail = [(step, posterior[step - 1, 0], posterior[step - 1, 1])
             for step in range(every, (flip or max_post) + 1, every)]
    return flip, trail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pre-steps", type=int, default=2000)
    parser.add_argument("--taus", default="0.99,0.995,0.999,0.9995")
    args = parser.parse_args()

    print(f"dominance for {args.pre_steps} steps, then a full reversal\n")
    print(f"{'tau':>8} {'steps to flip':>14}")
    for tau in (float(t) for t in args.taus.split(",")):
        flip, trail = steps_to_flip(tau, args.pre_steps)
        print(f"{tau:>8} {flip if flip is not None else '> cap':>14}")
        if tau == 0.999:
            print("\n  posterior trajectory at tau=0.999 (old leader vs new):")
            for step, p_old, p_new in trail:
                print(f"    +{step:>5} steps   p_old={p_old:.4f}   p_new={p_new:.4f}")
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
