package repro.expts

import org.apache.spark.sql.SparkSession
import repro.core._

/** Table II reproduction: properties of the five voting scores. NP-hardness
  * is theoretical (Thms 1–2); the remaining columns are validated
  * empirically — non-negativity and monotonicity on random seed sets of a
  * random instance, submodularity by randomized counterexample search plus
  * the paper's own Example 3 counterexample for plurality and Copeland.
  */
object Table2Exp {

  final case class Row(score: String, paperNpHard: String,
                       nonNegative: Boolean, nonDecreasing: Boolean,
                       submodularEmpirical: Option[Boolean], paperSubmodular: String)

  private def checkMonotone(inst: Instance, s: VoteScore, trials: Int, rng: scala.util.Random): (Boolean, Boolean) = {
    var nonNeg = true; var nonDec = true
    for (_ <- 1 to trials) {
      val seeds = rng.shuffle((0L until inst.n).toList).take(rng.nextInt(3))
      val extra = rng.nextLong(inst.n)
      val f0 = inst.targetScore(s, seeds)
      val f1 = inst.targetScore(s, (seeds :+ extra).distinct)
      if (f0 < -1e-9 || f1 < -1e-9) nonNeg = false
      if (f1 < f0 - 1e-9) nonDec = false
    }
    (nonNeg, nonDec)
  }

  /** Some(false) if a submodularity violation is found; Some(true) if no
    * violation in `trials` random (X ⊆ Y, s) triples; checked on `inst`.
    */
  private def checkSubmodular(inst: Instance, s: VoteScore, trials: Int,
                              rng: scala.util.Random): Boolean = {
    var violated = false
    var i = 0
    while (!violated && i < trials) {
      val a = rng.shuffle((0L until inst.n).toList).take(rng.nextInt(4)).sorted
      val b = rng.shuffle((0L until inst.n).toList).take(rng.nextInt(4)).sorted
      val x = a.intersect(b)
      val y = (a ++ b).distinct.sorted
      val extra = rng.nextLong(inst.n)
      if (!y.contains(extra)) {
        val gX = inst.targetScore(s, (x :+ extra).distinct) - inst.targetScore(s, x)
        val gY = inst.targetScore(s, (y :+ extra).distinct) - inst.targetScore(s, y)
        if (gX < gY - 1e-9) violated = true
      }
      i += 1
    }
    !violated
  }

  def run(spark: SparkSession, trials: Int = 12): (String, Seq[Row]) = {
    val rnd = Datasets.instance(spark,
      Datasets.Spec("table2", "table2", 14, 52, 3, 0, 0, 503), t = 2)
    val ex = RunningExample.instance(spark)
    val rng = new scala.util.Random(17)

    val scores: Seq[(String, VoteScore, String, String)] = Seq(
      ("Cumulative", Cumulative, "Yes (Thm 1)", "Yes"),
      ("Plurality", Plurality(3), "Yes (Thm 2)", "No"),
      ("p-Approval", PApproval(2, 3), "Yes", "No"),
      ("Pos-p-Appr.", PositionalPApproval(2, Seq(1.0, 0.5, 0.0)), "Yes", "No"),
      ("Copeland", Copeland, "Open", "No"),
    )

    val rows = scores.map { case (nm, s, npHard, paperSub) =>
      val (nonNeg, nonDec) = checkMonotone(rnd, s, trials, rng)
      val sub: Option[Boolean] = nm match {
        // Plurality/Copeland: the paper's Example 3 counterexample is exact.
        case "Plurality" | "Copeland" =>
          val e = if (s == Copeland) Copeland else Plurality(2)
          Some((ex.targetScore(e, Seq(1L)) - ex.targetScore(e, Nil)) >=
            (ex.targetScore(e, Seq(0L, 1L)) - ex.targetScore(e, Seq(0L))))
        case _ => Some(checkSubmodular(rnd, s, trials, rng))
      }
      Row(nm, npHard, nonNeg, nonDec, sub, paperSub)
    }

    val text = Harness.render(
      "Table II - score properties (paper claim vs empirical check)",
      Seq("Score", "NP-hard (paper)", "Non-negative", "Non-decreasing",
          "Submodular (empirical)", "Submodular (paper)"),
      rows.map(r => Seq(
        r.score, r.paperNpHard,
        if (r.nonNegative) "Yes" else "VIOLATED",
        if (r.nonDecreasing) "Yes" else "VIOLATED",
        r.submodularEmpirical match {
          case Some(true)  => "not falsified"
          case Some(false) => "No (counterexample)"
          case None        => "-"
        },
        r.paperSubmodular)))
    (text, rows)
  }
}
