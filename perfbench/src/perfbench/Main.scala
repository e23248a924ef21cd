package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import repro.expts.Table1Exp
import repro.walks.{Bounds, Methods, WalkGen, WalkGreedy}
import scala.collection.mutable

/** FJ-Vote benchmark entry point: one closed-loop client issuing a workload's
  * queries back to back against the program's public API.
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                  --work-dir <dir> [--self-test]
  *
  * The last line of standard output is one JSON object with the keys
  * `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
  * with `--trace 0`, the per-layer metrics with `--trace 1`.
  */
object Main {

  final case class Opts(workload: String = "", seed: Long = 1, seconds: Int = 10,
                        trace: Boolean = false, workDir: String = ".", selfTest: Boolean = false)

  /** Fixed Spark session settings; printed by every run. */
  object Session {
    val Cores: Int = math.min(2, Runtime.getRuntime.availableProcessors)
    val ShufflePartitions = 4
    val BroadcastThreshold = -1L

    def start(workDir: String): SparkSession =
      SparkSession.builder
        .master(s"local[$Cores]")
        .appName("perfbench")
        .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
        .config("spark.sql.autoBroadcastJoinThreshold", BroadcastThreshold)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"$workDir/spark-local")
        .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
        .getOrCreate()

    def describe: String =
      s"master=local[$Cores] spark.sql.shuffle.partitions=$ShufflePartitions " +
        s"spark.sql.autoBroadcastJoinThreshold=$BroadcastThreshold " +
        s"nproc=${Runtime.getRuntime.availableProcessors} " +
        s"maxHeapMB=${Runtime.getRuntime.maxMemory / 1000000}"
  }

  /** Set-up repetitions per run; `setup_s` is their median. The first runs
    * in a cold JVM and costs about three warm ones, so two fit the run
    * budget.
    */
  val SetupReps = 2

  def main(args: Array[String]): Unit = {
    val code =
      try {
        val o = parse(args.toList, Opts())
        if (o.selfTest) SelfTest.run(o) else run(o)
      } catch {
        case e: IllegalArgumentException => Console.err.println(s"perfbench: ${e.getMessage}"); 2
        case e: Throwable => e.printStackTrace(); 1
      }
    sys.exit(code)
  }

  private def parse(args: List[String], o: Opts): Opts = args match {
    case Nil => require(o.selfTest || o.workload.nonEmpty, "--workload is required"); o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toInt))
    case "--trace" :: v :: rest    =>
      require(v == "0" || v == "1", s"--trace takes 0 or 1, got $v")
      parse(rest, o.copy(trace = v == "1"))
    case "--work-dir" :: v :: rest => parse(rest, o.copy(workDir = v))
    case "--self-test" :: rest     => parse(rest, o.copy(selfTest = true))
    case other :: _                => throw new IllegalArgumentException(s"unknown argument $other")
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Heap in use after a forced GC, in MB (10^6 bytes). */
  private def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  final case class Setup(spark: SparkSession, inst: Instance, checksum: Long, seconds: Double)

  /** Session start, input generation, normalisation, instance
    * materialisation and the Table I check, as one timed unit.
    */
  def setUp(wl: Workload, seed: Long, workDir: String, rec: Option[Recorder]): Setup = {
    val t0 = System.nanoTime()
    val spark = Session.start(workDir)
    rec.foreach(_.attach(spark.sparkContext))
    val tr = rec.getOrElse(Tracer.Off)
    val (inst, checksum) = tr.span("setup") {
      val data = tr.span("Inputs.generate")(Inputs.generate(wl.spec, seed))
      val edges = tr.span("GraphOps.normalize") {
        GraphOps.normalize(spark, data.edgeDf(spark), wl.spec.n).localCheckpoint(true)
      }
      val profile = tr.span("Instance.profile")(data.profileDf(spark).localCheckpoint(true))
      val rows = tr.span("Table1Exp.run")(Table1Exp.run(spark)._2)
      if (rows.isEmpty || !rows.forall(_.matchesPaper))
        throw new IllegalStateException("Table I does not reproduce cell for cell")
      (Instance(edges, profile, wl.spec.n, wl.spec.r, q = 0, t = wl.spec.t), data.checksum)
    }
    rec.foreach(_.detach())
    Setup(spark, inst, checksum, secondsSince(t0))
  }

  /** Runs one query's select call, spanned by the layer it enters. */
  def select(q: Query, inst: Instance, tr: Tracer): Answer = q match {
    case p: Pick =>
      tr.span(p.layer)(p.select(inst))
    case w: Win =>
      val greedy = tr.span("Methods.rs") {
        Methods.rs(inst, w.score, w.kMax, seed = w.walkSeed, thetaOverride = Some(w.theta))
      }
      tr.span("WinSearch.minSeedsToWin")(WinSearch.minSeedsToWin(inst, w.score, greedy.seeds)) match {
        case Some((k, prefix)) =>
          Answer(prefix, estimate = greedy.estScores.lift(k - 1), kStar = Some(k))
        case None => Answer(greedy.seeds, kStar = None)
      }
  }

  /** Exact evaluation under FJ; for Problem 2, every candidate's exact score
    * at the k* and k*-1 prefixes.
    */
  def evaluate(q: Query, a: Answer, inst: Instance, tr: Tracer): Outcome = q match {
    case _: Pick =>
      Outcome(q, a, tr.span("Instance.targetScore")(inst.targetScore(q.score, a.seeds)))
    case _: Win =>
      val atK = tr.span("Checks.allScores")(Checks.allScores(inst, q.score, a.seeds))
      val before = a.kStar.filter(_ > 0).map { k =>
        Checks.wins(inst, tr.span("Checks.allScores")(Checks.allScores(inst, q.score, a.seeds.take(k - 1))))
      }
      Outcome(q, a, atK(inst.q), Some(Checks.wins(inst, atK)), before)
  }

  final case class QueryRun(outcome: Option[Outcome], failures: Seq[String],
                            selectNs: Long, wallNs: Long)

  final case class Pass(traced: Boolean, runs: Seq[QueryRun], clockNs: Long, boundaryNs: Long) {
    def wallS: Double = runs.map(_.wallNs).sum / 1e9
    def selectS: Double = runs.map(_.selectNs).sum / 1e9
  }

  /** Issues every query once, in order. Checks, the forced GC and the heap
    * reading happen at query boundaries, outside the timed calls.
    */
  def runPass(wl: Workload, queries: Seq[Query], inst: Instance, tr: Tracer, traced: Boolean,
              base: VoteScore => Double, heap: mutable.ArrayBuffer[Double]): Pass = {
    val p0 = System.nanoTime()
    var boundaryNs = 0L
    val runs = queries.map { q =>
      val (res, selNs, wallNs) = tr.span(s"query:${q.name}") {
        val t0 = System.nanoTime()
        try {
          val a = tr.span("select")(select(q, inst, tr))
          val t1 = System.nanoTime()
          val o = tr.span("eval")(evaluate(q, a, inst, tr))
          (Right(o), t1 - t0, System.nanoTime() - t0)
        } catch {
          case e: Exception =>
            val ns = System.nanoTime() - t0
            (Left(s"${e.getClass.getSimpleName}: ${e.getMessage}"), ns, ns)
        }
      }
      val b0 = System.nanoTime()
      val run = res match {
        case Right(o) => QueryRun(Some(o), Checks(o, inst, base(q.score)), selNs, wallNs)
        case Left(err) => QueryRun(None, Seq(s"threw $err"), selNs, wallNs)
      }
      heap += liveHeapMb()
      boundaryNs += System.nanoTime() - b0
      run
    }
    Pass(traced, runs, System.nanoTime() - p0, boundaryNs)
  }

  def run(o: Opts): Int = {
    val wl = Workloads.byName(o.workload)
    require(o.seconds >= 1, s"--seconds must be >= 1, got ${o.seconds}")
    Files.createDirectories(Paths.get(o.workDir))
    val rec = if (o.trace) Some(new Recorder(s"${wl.name}-seed${o.seed}")) else None
    println(s"perfbench workload=${wl.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}")
    println(s"session: ${Session.describe}")
    println(s"load: closed loop, 1 client, queries back to back")

    // Set-up, repeated; the session of the last repetition serves the run.
    var setup: Setup = null
    val setupS = (0 until SetupReps).map { rep =>
      if (setup != null) setup.spark.stop()
      rec.foreach(_.pass = rep)
      setup = setUp(wl, o.seed, o.workDir, rec)
      setup.seconds
    }
    val inst = setup.inst
    println(f"input: n=${inst.n} m=${wl.spec.m} r=${inst.r} t=${inst.t} " +
      f"checksum=${setup.checksum}%016x")
    println(s"setup_s per repetition: ${setupS.map(s => f"$s%.3f").mkString(" ")}")

    val baseMemo = mutable.HashMap.empty[String, Double]
    val base: VoteScore => Double =
      s => baseMemo.getOrElseUpdate(s.name, inst.targetScore(s, Nil))
    val queries = wl.queries(o.seed)
    queries.foreach(q => base(q.score))
    val heap = mutable.ArrayBuffer.empty[Double]
    heap += liveHeapMb()

    // Measured phase: whole passes, each started only if it should end
    // within the run's seconds (judged by the previous pass). A traced run
    // alternates untraced and traced passes, at least untraced-traced-
    // untraced, so the tracing overhead is not confounded with warm-up.
    val passes = mutable.ArrayBuffer.empty[Pass]
    val t0 = System.nanoTime()
    def more = passes.isEmpty || secondsSince(t0) + passes.last.clockNs / 1e9 <= o.seconds ||
      (o.trace && passes.size < 3)
    while (more) {
      val traced = o.trace && passes.size % 2 == 1
      val tr: Tracer = if (traced) rec.get else Tracer.Off
      rec.foreach { r => r.pass = SetupReps + passes.size; if (traced) r.attach(setup.spark.sparkContext) }
      val p = runPass(wl, queries, inst, tr, traced, base, heap)
      if (traced) rec.get.detach()
      passes += p
      println(f"pass ${passes.size}%d${if (traced) " (traced)" else ""}: wall_s=${p.wallS}%.3f " +
        f"select_s=${p.selectS}%.3f " + p.runs.zip(queries).map { case (r, q) =>
          f"${q.name}=${r.wallNs / 1e9}%.2fs" }.mkString(" "))
    }

    val all = passes.flatMap(_.runs)
    val failed = all.count(_.failures.nonEmpty)
    for ((r, q) <- passes.head.runs.zip(queries)) r.outcome.foreach { oc =>
      println(f"query ${q.name}: seeds=${oc.answer.seeds.mkString("[", ",", "]")} " +
        f"exact=${oc.exact}%.6f vote_share=${oc.voteShare(inst)}%.4f" +
        oc.answer.kStar.map(k => s" k*=$k").getOrElse("") +
        oc.answer.estimate.map(e => f" estimate=$e%.4f").getOrElse(""))
    }
    for ((r, i) <- all.zipWithIndex; f <- r.failures)
      println(s"CHECK FAILED: ${queries(i % queries.size).name}: $f")

    val outcomes = all.flatMap(_.outcome)
    val metrics: Seq[(String, Double, String)] =
      if (!o.trace) Seq(
        ("setup_s", median(setupS), "s"),
        ("wall_s", median(passes.map(_.wallS).toSeq), "s"),
        ("select_s", median(passes.map(_.selectS).toSeq), "s"),
        ("vote_share", if (outcomes.isEmpty) 0.0 else outcomes.map(_.voteShare(inst)).sum / outcomes.size, "fraction"),
        ("k_star", passes.head.runs.flatMap(_.outcome).map(_.seedCount).sum.toDouble, "seeds"),
        ("pass_frac", (all.size - failed).toDouble / all.size, "fraction"),
        ("heap_live_mb", heap.max, "MB"),
      )
      else {
        val r = rec.get
        r.pass = -1
        r.attach(setup.spark.sparkContext)
        val probed = Probe.all(wl, inst, r, o.seed)
        r.detach()
        println(LayerMetrics.table(r))
        Files.write(Paths.get(o.workDir, s"trace-${wl.name}-seed${o.seed}.json"), r.toJson.getBytes("UTF-8"))
        LayerMetrics(r, passes.toSeq, outcomes.toSeq, probed)
      }
    setup.spark.stop()

    val correct = failed == 0
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": ${all.size}, "failed": $failed, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    if (correct) 0 else 1
  }

  /** Single-operation probes, each called once on the workload's instance
    * inside a span named after the layer metric it feeds.
    */
  object Probe {
    def all(wl: Workload, inst: Instance, tr: Recorder, seed: Long): Map[String, Double] = {
      val spark = inst.edges.sparkSession
      import spark.implicits._
      val counts = mutable.HashMap.empty[String, Double]
      val plurality = Plurality(inst.r)
      if (wl.probes(Probes.Fj)) {
        val ops = tr.span("OpinionDiffusion.diffuse")(OpinionDiffusion.diffuse(inst.edges, inst.profile, inst.t))
        tr.span("Instance.competitorOpinions")(inst.competitorOpinions())
        tr.span("Scores.exact.cumulative")(Cumulative.exact(ops, inst.q))
        tr.span("Scores.exact.plurality")(plurality.exact(ops, inst.q))
        tr.span("Scores.exact.copeland")(Copeland.exact(ops, inst.q))
        tr.span("Instance.wins")(inst.wins(plurality, Nil))
      }
      if (wl.probes(Probes.Dm)) {
        val scen = (0L until inst.n).toDF("scen")
        val target = tr.span("OpinionDiffusion.diffuseScenarios") {
          OpinionDiffusion.diffuseScenarios(inst.edges, inst.targetProfile(Nil), scen, inst.t)
        }
        val comp = tr.span("probe.competitorOpinions")(inst.competitorOpinions().localCheckpoint(true))
        tr.span("Scores.byScenario.cumulative")(Cumulative.byScenario(target, comp).collect())
        tr.span("Scores.byScenario.plurality")(plurality.byScenario(target, comp).collect())
        tr.span("Scores.byScenario.copeland")(Copeland.byScenario(target, comp).collect())
        tr.span("GreedyDM.round")(GreedyDM.select(inst, plurality, 1))
        tr.span("GraphOps.reachWithin")(GraphOps.reachWithin(spark, inst.edges, inst.n, inst.t))
        val none = Seq.empty[Long].toDF("node")
        tr.span("Sandwich.coverageGreedy")(Sandwich.coverageGreedy(inst, none, 1, 1.0))
      }
      if (wl.probes(Probes.Walk)) {
        val theta = wl.walkTheta
        val starts = tr.span("WalkGen.sketchStarts")(WalkGen.sketchStarts(spark, inst.n, theta, seed + 8))
        val walks = tr.span("WalkGen.generate") {
          WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst), starts, inst.t, seed + 9)
        }
        counts("WalkGen.path_nodes") = tr.span("probe.pathNodes") {
          walks.agg(sum(size(col("path")))).head.getLong(0).toDouble
        }
        val annotated = tr.span("WalkGen.annotate")(WalkGen.annotate(walks, inst, obsIsWalk = true))
        val scale = inst.n.toDouble / theta
        tr.span("WalkGreedy.select")(WalkGreedy.select(inst, plurality, wl.walkK, annotated, scale))
        val pick = tr.span("WalkGreedy.round")(WalkGreedy.select(inst, plurality, 1, annotated, scale)).seeds
        tr.span("WalkGreedy.applyCover")(WalkGreedy.applyCover(annotated, pick).localCheckpoint(true))
      }
      if (wl.probes(Probes.Bounds))
        tr.span("Bounds.lambdaPerNode")(Bounds.lambdaPerNode(inst, rho = 0.9).localCheckpoint(true))
      counts.toMap
    }
  }
}
