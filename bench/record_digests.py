"""Record the report digest and job time of every pool job into digests.json.

    python3 bench/record_digests.py [WORKLOAD ...]

Run it on the code whose reports are the reference (the digests in the
repository were recorded from the seed code); report_match_frac then counts
the jobs whose report bytes are unchanged.  A workload's job times are
recorded the first time only; they fix the cost strata of workloads.py.
"""

import json
import sys

from run import HERE, OUT, import_cli, run_job
from workloads import POOL, WORKLOADS


def main(names) -> None:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for name in names:
        rows = []
        for js in range(POOL):
            job = run_job(cli, WORKLOADS[name], js)
            rows.append(job)
            print(name, js, f"{job.wall_s:.3f}", job.verified, flush=True)
        # job times are kept from the first recording: they fix the cost strata,
        # and with them the jobs a run seed selects
        job_s = table.get(name, {}).get("job_s") or [round(j.wall_s, 3) for j in rows]
        table[name] = {"digest": [j.digest for j in rows], "job_s": job_s}
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
