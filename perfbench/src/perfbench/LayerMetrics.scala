package perfbench

/** Per-layer metrics of a traced run, from its spans and outcomes. */
object LayerMetrics {

  /** Layer spans and the counters reported for each. A layer's figure is
    * its spans' inclusive total within one pass (a set-up repetition, a
    * traced query pass, or the single probe pass), median over passes; 0
    * where the workload does not exercise the layer.
    */
  val Layers: Seq[(String, Seq[String])] = Seq(
    "GraphOps.normalize" -> Seq("ms", "jobs"),
    "GraphOps.reachWithin" -> Seq("ms", "jobs"),
    "Sandwich.coverageGreedy" -> Seq("ms", "jobs"),
    "Sandwich.run" -> Seq("ms", "jobs"),
    "OpinionDiffusion.diffuseScenarios" -> Seq("ms", "jobs", "shuffle_mb"),
    "Scores.byScenario.cumulative" -> Seq("ms"),
    "Scores.byScenario.plurality" -> Seq("ms"),
    "Scores.byScenario.copeland" -> Seq("ms"),
    "GreedyDM.select" -> Seq("ms", "jobs"),
    "GreedyDM.round" -> Seq("ms"),
    "OpinionDiffusion.diffuse" -> Seq("ms", "jobs", "shuffle_mb"),
    "Instance.competitorOpinions" -> Seq("ms"),
    "Scores.exact.cumulative" -> Seq("ms"),
    "Scores.exact.plurality" -> Seq("ms"),
    "Scores.exact.copeland" -> Seq("ms"),
    "Instance.wins" -> Seq("ms", "jobs"),
    "WinSearch.minSeedsToWin" -> Seq("ms", "jobs"),
    "WalkGen.generate" -> Seq("ms", "jobs", "shuffle_mb"),
    "WalkGen.annotate" -> Seq("ms"),
    "WalkGreedy.select" -> Seq("ms", "jobs", "shuffle_mb"),
    "WalkGreedy.round" -> Seq("ms"),
    "WalkGreedy.applyCover" -> Seq("ms"),
    "Bounds.lambdaPerNode" -> Seq("ms"),
    "RRSets.select" -> Seq("ms", "jobs"),
    "Centrality.degree" -> Seq("ms"),
  )

  private val Units = Map("ms" -> "ms", "jobs" -> "count", "shuffle_mb" -> "MB")

  private def stat(t: Totals, s: String): Double = s match {
    case "ms"         => t.ms
    case "jobs"       => t.jobs.toDouble
    case "shuffle_mb" => t.shuffleWriteBytes / 1e6
  }

  def apply(rec: Recorder, passes: Seq[Main.Pass], outcomes: Seq[Outcome],
            probed: Map[String, Double]): Seq[(String, Double, String)] = {
    rec.drain()
    val spans = rec.all
    val tot = rec.totals
    val byName = spans.groupBy(_.name)

    val layers = for ((layer, stats) <- Layers; s <- stats) yield {
      val perPass = byName.getOrElse(layer, Nil).groupBy(_.pass).values
        .map(group => group.map(sp => stat(tot(sp.id), s)).sum).toSeq
      (s"$layer.$s", Main.median(perPass), Units(s))
    }

    val wins = outcomes.collect { case o @ Outcome(w: Win, _, _, _, _) => (o.seedCount, w.kMax) }
    val usefulFrac = if (wins.isEmpty) 0.0 else wins.map(_._1).sum.toDouble / wins.map(_._2).sum
    val errs = outcomes.flatMap(o => o.answer.estimate.filter(_ => o.exact > 0)
      .map(e => math.abs(e - o.exact) / o.exact))
    val estErr = if (errs.isEmpty) 0.0 else errs.sum / errs.size

    // Whole traced passes: every job of a pass runs inside a query span.
    val tracedPasses = passes.zipWithIndex.filter(_._1.traced)
    val querySpans = spans.filter(_.name.startsWith("query:")).groupBy(_.pass)
    val perPass = tracedPasses.map { case (p, i) =>
      val qs = querySpans.getOrElse(Main.SetupReps + i, Nil).map(s => tot(s.id))
      (p, qs)
    }
    def med(f: ((Main.Pass, Seq[Totals])) => Double) = Main.median(perPass.map(f))
    val untracedWall = Main.median(passes.filterNot(_.traced).map(_.wallS))
    val tracedWall = Main.median(passes.filter(_.traced).map(_.wallS))

    layers ++ Seq(
      ("WinSearch.useful_round_frac", usefulFrac, "fraction"),
      ("WalkGen.path_nodes", probed.getOrElse("WalkGen.path_nodes", 0.0), "count"),
      ("WalkGreedy.est_rel_err", estErr, "fraction"),
      ("spark.jobs", med(_._2.map(_.jobs).sum.toDouble), "count"),
      ("spark.stages", med(_._2.map(_.stages).sum.toDouble), "count"),
      ("spark.tasks", med(_._2.map(_.tasks).sum.toDouble), "count"),
      ("spark.shuffle_mb", med(_._2.map(_.shuffleWriteBytes).sum / 1e6), "MB"),
      ("spark.ms_per_job", med { case (_, qs) => qs.map(_.ms).sum / math.max(1, qs.map(_.jobs).sum) }, "ms"),
      ("trace.overhead_frac", if (untracedWall > 0) tracedWall / untracedWall - 1 else 0.0, "fraction"),
      ("trace.query_cover_frac", med { case (p, qs) => qs.map(_.ms).sum / ((p.clockNs - p.boundaryNs) / 1e6) },
        "fraction"),
    )
  }

  /** Inclusive and self figures per span name, summed over the run. */
  def table(rec: Recorder): String = {
    val tot = rec.totals
    val rows = rec.all.groupBy(_.name).toSeq.map { case (name, ss) =>
      val ts = ss.map(s => tot(s.id))
      (name, ss.size, ts.map(_.ms).sum, ts.map(_.selfMs).sum, ts.map(_.jobs).sum,
        ts.map(_.stages).sum, ts.map(_.tasks).sum, ts.map(_.shuffleWriteBytes).sum / 1e6)
    }.sortBy(-_._3)
    val lines = rows.map { case (n, c, ms, self, j, st, tk, mb) =>
      f"  $n%-40s calls=$c%4d ms=$ms%10.1f self_ms=$self%10.1f jobs=$j%5d stages=$st%5d tasks=$tk%6d shuffle_write_mb=$mb%8.3f"
    }
    (s"spans (jobs outside any span: ${rec.jobsOutsideSpans}):" +: lines).mkString("\n")
  }
}
