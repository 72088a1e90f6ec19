from checks import check_run, check_sweep

HEADER = "t,mass,energy,bd_entropy,diss_u,diss_bd,gron_pass_p0"


def _run_files(mass_last="2.0", status="completed"):
    return {
        "summary.csv": f"name,form,status,v,b,c,steps\nx,U,{status},no,none,none,10\n".encode(),
        "timeseries.csv": (f"{HEADER}\n0.0,2.0,1.0,1.0,0.0,0.0,pass\n"
                           f"0.1,{mass_last},0.9,0.9,0.05,0.05,pass\n").encode(),
        "fields_0.000000.csv": b"x,rho,u,v\n0,1,0,0\n0,1,0,0\n",
        "fields_0.100000.csv": b"x,rho,u,v\n0,1,0,0\n0,1,0,0\n",
    }


def test_clean_run_passes_and_reports_budgets():
    result = check_run(_run_files(), ["U"], frames=2, n_cells=2)
    assert result["failed"] == 0
    assert result["values"]["U.energy_budget"] < 0.0
    assert result["values"]["U.steps"] == 10


def test_mass_drift_status_and_non_finite_cells_fail():
    assert check_run(_run_files(mass_last="2.1"), ["U"], 2, 2)["failed"] == 1
    assert check_run(_run_files(status="vacuum"), ["U"], 2, 2)["failed"] == 1
    assert check_run(_run_files(mass_last="undefined"), ["U"], 2, 2)["failed"] == 1
    assert check_run(_run_files(), ["U"], frames=3, n_cells=2)["failed"] == 1


def test_sweep_counts_error_rows_and_missing_rows():
    head = "alpha,gamma,inside_theorem,status,min_rho_run,vacuum,breach_time,sup_v_inf,gronwall\n"
    ok = "0.6,1.5,yes,completed,0.2,no,none,2.7,pass\n"
    err = "0.7,1.5,no,error: boom,undefined,no,none,undefined,unavailable\n"
    assert check_sweep({"sweep.csv": (head + ok + ok).encode()}, 2)["failed"] == 0
    assert check_sweep({"sweep.csv": (head + ok + err).encode()}, 2)["failed"] == 1
    assert check_sweep({"sweep.csv": (head + ok).encode()}, 2)["failed"] == 2
    assert check_sweep({}, 2)["failed"] == 2
