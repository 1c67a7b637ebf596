"""Combining experts with exponential weights, and watching the regret bound.

Five experts of very different quality predict a binary event's market
price.  The learner weighs them by exp(-eta * cumulative loss) with
eta = sqrt(8 ln N / T) and predicts the weighted average each round before
seeing that round's losses.  However adversarial the losses, the learner's
cumulative loss can exceed the best expert's by at most sqrt(T/2 ln N).

Run from the repo root:  python demos/04_online_learning.py
"""

import numpy as np

from statecast import ExpertPanel, regret_bound
from statecast.online import quadratic_losses, run

rng = np.random.default_rng(7)
T, N = 120, 5
names = ["sharp", "noisy", "stale", "contrarian", "coin-flipper"]

# a latent market price the experts try to anticipate
price = np.clip(0.55 + np.cumsum(rng.normal(0, 0.03, T + 1)), 0.05, 0.95)

values = np.empty((T, N))
values[:, 0] = np.clip(price[1:] + rng.normal(0, 0.02, T), 0, 1)   # nearly psychic
values[:, 1] = np.clip(price[:-1] + rng.normal(0, 0.10, T), 0, 1)  # noisy follower
values[:, 2] = np.clip(np.repeat(price[0], T) + rng.normal(0, 0.02, T), 0, 1)
values[:, 3] = np.clip(1.0 - price[:-1], 0, 1)                     # backwards
values[:, 4] = rng.uniform(0, 1, T)

panel = ExpertPanel(names, np.arange(T, dtype=float), values)
losses = quadratic_losses(np.vstack([values, values[-1:]]), price)[:T]

result = run(panel, losses)
bound = regret_bound(N, T)

print(f"{T} rounds, {N} experts, eta = {result.state.eta:.4f}\n")
print(f"{'expert':14s} {'cum loss':>9s} {'final weight':>13s}")
for name, loss, w in zip(names, result.state.cumulative_losses, result.state.weights):
    print(f"{name:14s} {loss:9.3f} {w:13.6f}")

learner_total = result.learner_losses.sum()
best = result.state.cumulative_losses.min()
print(f"\nlearner cumulative loss {learner_total:.3f} vs best expert {best:.3f}")
print(f"regret {result.regret:.3f} <= guaranteed bound {bound:.3f}")

print("\nweight on the sharp expert over time:")
# replay to show the weight trajectory
from statecast.online import init, update  # noqa: E402

state = init(N, T)
for t in range(0, T, 20):
    for k in range(t, min(t + 20, T)):
        state = update(state, losses[k])
    print(f"  after round {state.round:3d}: {state.weights[0]:.3f}")
