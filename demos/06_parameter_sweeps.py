"""Single-parameter sensitivity sweeps.

Varies the spatial block step and the sequence length around the control
settings (2x2 blocks, unit step, 150 ms windows, 50 ms overlap, n_win=1),
one pipeline run per value, and prints the resulting tables.
"""

from emgdecode import RunConfig, SynthConfig, generate_tasks, sweep

synth = SynthConfig(seed=3, duration_s=8.0)
tasks = generate_tasks(synth)
config = RunConfig(seed=3, crop_s=(0.5, 7.5))

for param, values in (("block_step", (1, 2, 3, 4)), ("n_win", (1, 2, 4, 8))):
    table = sweep(param, config, tasks=tasks, values=values)
    print(f"\nsweep over {param}:")
    print("  value  r2_vw")
    for row in table.rows:
        print(f"  {row[1]:>5}  {row[3]:.4f}" if row[2] == "ok" else f"  {row[1]:>5}  {row[2]}")
