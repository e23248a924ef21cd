package perfbench

import repro.core.{Cumulative, GreedyDM}
import repro.walks.Methods

/** Shows that every correctness check passes on a true answer and fires on a
  * corrupted one. Runs on the `win-search` instance of the given seed:
  *
  *   perfbench.Main --self-test --seed <n> --work-dir <dir>
  */
object SelfTest {

  def run(o: Main.Opts): Int = {
    val setup = Main.setUp(Workloads.winSearch, o.seed, o.workDir, None)
    val inst = setup.inst
    val tr = Tracer.Off
    def base(q: Query) = inst.targetScore(q.score, Nil)

    val dm = Pick("dm-cumulative-celf-k2", "GreedyDM.select", Cumulative, 2, i => {
      val res = GreedyDM.select(i, Cumulative, 2, celf = true)
      Answer(res.seeds, exactScore = Some(res.scores.last))
    })
    val win = Workloads.winSearch.queries(o.seed).collectFirst { case w: Win => w }.get

    def outcome(q: Query, a: Answer) = Main.evaluate(q, a, inst, tr)
    val dmAns = Main.select(dm, inst, tr)
    val dmSeeds = dmAns.copy(exactScore = None) // seed corruptions: leave the score check out
    val winAns = Main.select(win, inst, tr)
    val k = winAns.kStar.getOrElse(0)
    // The same walk seed gives the same greedy sequence as the select call.
    val seq = Methods.rs(inst, win.score, win.kMax, seed = win.walkSeed, thetaOverride = Some(win.theta)).seeds
    require(k >= 1 && winAns.seeds == seq.take(k), s"self-test needs a reproducible k* >= 1, got $k")

    // (label, outcome, fragment the failure message must contain; "" = must pass)
    val cases = Seq(
      ("true DM answer", outcome(dm, dmAns), ""),
      ("duplicate seed", outcome(dm, dmSeeds.copy(seeds = Seq.fill(2)(dmAns.seeds.head))), "duplicate"),
      ("seed out of range", outcome(dm, dmSeeds.copy(seeds = Seq(dmAns.seeds.head, inst.n))), "outside"),
      ("too few seeds", outcome(dm, dmSeeds.copy(seeds = dmAns.seeds.take(1))), "expected 2"),
      ("score below F(empty)", outcome(dm, dmSeeds).copy(exact = base(dm) - 0.5), "below F(empty)"),
      ("greedy score off by 1e-6", outcome(dm, dmAns.copy(exactScore = dmAns.exactScore.map(_ + 1e-6))),
        "exact re-evaluation"),
      ("true win answer", outcome(win, winAns), ""),
      ("k* one too small", outcome(win, Answer(seq.take(k - 1), kStar = Some(k - 1))), "does not win"),
      ("k* one too large", outcome(win, Answer(seq.take(k + 1), kStar = Some(k + 1))), "already wins"),
    )

    val results = cases.map { case (label, oc, expect) =>
      val fails = Checks(oc, inst, base(oc.query))
      val ok = if (expect.isEmpty) fails.isEmpty else fails.exists(_.contains(expect))
      println(f"${if (ok) "ok  " else "FAIL"} $label%-26s -> ${if (fails.isEmpty) "passes" else fails.mkString("; ")}")
      ok
    }
    setup.spark.stop()
    if (results.forall(identity)) { println("self-test: every check fires on its corruption"); 0 }
    else 1
  }
}
